package trace

import "os"

type TailReader struct {
	path string
	w    *window
}

func (t *TailReader) checkFile() error { return nil }

// Next checks the tailed file per record.
func (t *TailReader) Next() error {
	stat := os.Stat
	if _, err := stat(t.path); err != nil {
		return err
	}
	return t.checkFile()
}
