// Package main is the benchmark harness, which damages files on
// purpose; the rule leaves it out.
package main

import "os"

func main() { os.CreateTemp("", "damaged-*") }
