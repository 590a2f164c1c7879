// Package main prints; the rule leaves cmd/ out.
package main

import "fmt"

func main() { fmt.Println("ok") }
