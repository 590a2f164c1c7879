package trace

// DefaultBatchSize is the record-slice size used for batched hand-off
// between pipeline stages. Batches amortise channel sends and
// interface calls; ~256 keeps a batch of 40-byte snapshots well
// inside L2 while making the per-batch overhead negligible.
const DefaultBatchSize = 256

// Batcher adapts a Source to batched reads: Next returns up to size
// owned records at a time instead of one. ReadAll collects its
// batches; no tool reads through it otherwise (core.Run borrows one
// record at a time), and the benchmark harness (bench/layers.go)
// compiles against it.
type Batcher struct {
	src  Source
	size int
	err  error
	slab slab
}

// NewBatcher returns a Batcher over src. size <= 0 selects
// DefaultBatchSize.
func NewBatcher(src Source, size int) *Batcher {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &Batcher{src: src, size: size}
}

// Next returns the next batch of records. The final batch may be
// shorter than the batch size, and a non-empty batch may accompany a
// non-nil error (io.EOF once the source is drained, or the source's
// error): the records were read successfully before the source
// stopped, so callers should consume the batch first and then handle
// the error.
func (b *Batcher) Next() ([]Record, error) {
	if b.err != nil {
		return nil, b.err
	}
	recs := make([]Record, b.size)
	for i := range recs {
		if err := b.src.Borrow(&recs[i]); err != nil {
			b.err = err
			return recs[:i], err
		}
		recs[i].Data = b.slab.own(recs[i].Data)
	}
	return recs, nil
}
