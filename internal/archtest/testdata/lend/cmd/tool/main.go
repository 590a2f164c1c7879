// Package main is not built. Its own Record type is not a trace record.
package main

type Record struct{}

type src struct{}

func (src) Next() (Record, error) { return Record{}, nil }

func (src) Borrow() (Record, error) { return Record{}, nil }

func main() {}
