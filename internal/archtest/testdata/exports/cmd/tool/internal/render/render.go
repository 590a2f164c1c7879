// Package render is under cmd/*/internal/, which the rule covers too.
package render

import (
	"fmt"

	"loopscope/internal/table"
)

// Print is called by cmd/tool.
func Print(t *table.Table) { fmt.Println(t) }

// Width is called by no one.
func Width() int { return 80 }
