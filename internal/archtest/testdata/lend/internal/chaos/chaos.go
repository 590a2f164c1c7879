// Package chaos is not built. Its Source reads through Next under an
// import alias, and an interface asks for Next; a batch read and a
// read that takes a context are other methods.
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

type Batcher struct{}

func (b *Batcher) Next() ([]tr.Record, error) { return nil, nil }

type Tail struct{}

func (t *Tail) Next(ctx context.Context) (tr.Record, error) { return tr.Record{}, ctx.Err() }
