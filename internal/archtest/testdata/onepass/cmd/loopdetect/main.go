// Package main is not built: it is the input that proves the onepass
// rule fires through an import alias.
package main

import (
	"loopscope/internal/core"
	tr "loopscope/internal/trace"
)

func main() {
	var held []tr.Record
	readAll := tr.ReadAll
	held, _ = readAll(nil)
	var _ core.BatchObserver
	_ = held
}
