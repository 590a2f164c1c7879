package main

import (
	"fmt"

	"loopscope/cmd/tool/internal/render"
	"loopscope/internal/obs"
	"loopscope/internal/table"
)

var _ obs.TB

func main() {
	t := table.New()
	t.Insert("10.0.0.0/8")
	for _, r := range t.Rows() {
		fmt.Println(r.Key)
	}
	render.Print(t)
}
