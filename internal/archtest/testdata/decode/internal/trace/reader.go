// Package trace is not built: it is the input that proves the decode
// rule fires. A reader frames a header by hand, through a ByteOrder
// method value and binary.Read, and codec.go, the rule's anchor, is
// missing.
package trace

import (
	"bufio"
	"encoding/binary"
	"io"
	"sync/atomic"
)

var headers atomic.Uint64 // a type named Uint64 is not a decode

func readHeader(r io.Reader, order binary.ByteOrder, b []byte) (uint16, bool, error) {
	headers.Add(1)
	var magic uint32
	if err := binary.Read(r, binary.BigEndian, &magic); err != nil {
		return 0, false, err
	}
	u16 := order.Uint16
	_ = bufio.NewReaderSize(r, 1<<16)
	return u16(b), binary.BigEndian.Uint32(b) == nativeMagic, nil
}
