// Package main is not built: the tree under testdata/fences is the
// input that proves the fences rule fires, transitively.
package main

import _ "loopscope/internal/core"
