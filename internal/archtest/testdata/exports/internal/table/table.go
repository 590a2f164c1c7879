// Package table is a library under internal/: what another package's
// non-test code reaches stays exported, the rest is reported.
package table

import "fmt"

// Table is used by cmd/tool.
type Table struct{ rows []Row }

// Row reaches cmd/tool only as a value Table.Rows returns.
type Row struct{ Key string }

// New is called by cmd/tool.
func New() *Table { return &Table{} }

// Insert is called by cmd/tool.
func (t *Table) Insert(key string) { t.rows = append(t.rows, Row{Key: normal(key)}) }

// Rows is called by cmd/tool.
func (t *Table) Rows() []Row { return t.rows }

// Clone is called only by table_test.go: a test is no user.
func (t *Table) Clone() *Table { return &Table{rows: append([]Row(nil), t.rows...)} }

// String is called by no one by name; fmt calls it through fmt.Stringer.
func (t *Table) String() string { return fmt.Sprint(len(t.rows), " rows") }

// Normalize is called only inside this package.
func Normalize(key string) string { return normal(key) }

func normal(key string) string { return key }

// Orphan is touched by no other package.
type Orphan struct{}

// Sized is called only by bench/, which counts.
func Sized(n int) *Table { return &Table{rows: make([]Row, 0, n)} }

// Writer is what bench/ writes through an interface it declares.
type Writer struct{ n int }

// Write is called through bench's anonymous interface.
func (w *Writer) Write(r Row) error { w.n++; return nil }

// Flush is never called by name anywhere; it satisfies bench's
// anonymous interface.
func (w *Writer) Flush() error { return nil }
