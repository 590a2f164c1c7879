// Package fibscan is not built: it is the input that proves the
// fibscan-stream rule fires on reuse by revision and a second scan.
package fibscan

import enc "encoding/json"

type revisionKey struct{ router, revision string }

func scan(dec *enc.Decoder) {
	var raw enc.RawMessage
	next := dec.Token
	_, _ = raw, next
}
