// Package trace is not built: it is the input that proves the lend rule
// fires. The strict reader grew a Next beside its Borrow again; File's
// Next, the one the benchmark harness compiles against, is allowed.
package trace

type Record struct{ Data []byte }

type File struct{ src *reader }

func (m *File) Borrow() (Record, error) { return m.src.Borrow() }

func (m *File) Next() (Record, error) { return m.Borrow() }

type reader struct{ buf []byte }

func (r *reader) Borrow() (Record, error) { return Record{Data: r.buf}, nil }

func (r *reader) Next() (rec Record, err error) {
	rec, err = r.Borrow()
	rec.Data = append([]byte(nil), rec.Data...)
	return rec, err
}
