package trace

import "encoding/binary"

// A writer emits the format's magic; that is not a decode.
func pcapHeader(b []byte) { binary.LittleEndian.PutUint32(b, pcapMagicNanos) }
