// Package chaos is not built. Its Source reads through Next under an
// import alias, an interface asks for Next, another for a Borrow that
// returns its record, and a tail's Borrow returns one beside taking a
// context; a batch read, a read that takes a context and a Borrow that
// fills the caller's record are other methods.
package chaos

import (
	"context"

	tr "loopscope/internal/trace"
)

type nexter interface {
	Meta() string
	Next() (tr.Record, error)
}

type Source struct{ src nexter }

func (s *Source) Next() (tr.Record, error) { return s.src.Next() }

type lender interface {
	Borrow() (tr.Record, error)
}

type Batcher struct{}

func (b *Batcher) Next() ([]tr.Record, error) { return nil, nil }

type Tail struct{}

func (t *Tail) Next(ctx context.Context) (tr.Record, error) { return tr.Record{}, ctx.Err() }

func (t *Tail) Borrow(ctx context.Context) (rec tr.Record, err error) { return rec, ctx.Err() }

type filler struct{}

func (filler) Borrow(rec *tr.Record) error { return nil }
