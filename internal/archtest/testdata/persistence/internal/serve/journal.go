// Package serve is not built: it is the input that proves the
// persistence rule fires on a hand-written journal, whatever name os
// is imported under.
package serve

import (
	"os"
	sys "os"
	"syscall"
)

func openJournal(dir, path string) (*os.File, error) {
	tmp, err := os.CreateTemp(dir, "journal-*")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|sys.O_APPEND|syscall.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, os.Rename(path, path+".quarantine")
}
