// Package main is not built: it is the input that proves the
// fibscan-stream rule fires through an import alias.
package main

import (
	fs "loopscope/internal/fibscan"
)

func main() {
	var held []fs.Snapshot
	held, _ = fs.ReadFile("fibs.json")
	decode := fs.Decode
	_, _ = fs.ScanTimeline(held), decode
}
