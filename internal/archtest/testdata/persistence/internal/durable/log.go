// Package durable owns persistence; the rule leaves it out.
package durable

import "os"

func open(path string) (*os.File, error) {
	return os.OpenFile(path+".corrupt", os.O_WRONLY|os.O_APPEND, 0o644)
}
