// Package trace is not built: it is the input that proves the lend rule
// fires. The strict reader grew a Next beside its Borrow again, and the
// salvaging reader's Borrow returns its record instead of filling the
// caller's; File's Next, the one the benchmark harness compiles against,
// is allowed.
package trace

type Record struct{ Data []byte }

type File struct {
	src  *reader
	lent Record
}

func (m *File) Borrow(rec *Record) error { return m.src.Borrow(rec) }

func (m *File) Next() (Record, error) {
	err := m.Borrow(&m.lent)
	return m.lent, err
}

type reader struct{ buf []byte }

func (r *reader) Borrow(rec *Record) error {
	rec.Data = r.buf
	return nil
}

func (r *reader) Next() (rec Record, err error) {
	err = r.Borrow(&rec)
	rec.Data = append([]byte(nil), rec.Data...)
	return rec, err
}

type salvageReader struct{ buf []byte }

func (s *salvageReader) Borrow() (Record, error) { return Record{Data: s.buf}, nil }
