package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Save replaces the document at path atomically: temp file in the same
// directory (created if missing), fsync, rename. A crash leaves the old
// document or the new one, never a torn hybrid.
func Save(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// Removes the partial file on a failure path; a no-op after the rename.
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load hands the document at path to decode, which must accept the
// whole image or reject it without side effects. A missing file is a
// clean first start: (false, nil), decode not called. A file that
// cannot be read or that decode rejects is renamed to path+".corrupt"
// (kept for post-mortem) and reported as (true, cause), so the caller
// starts fresh and surfaces the loss instead of refusing to start. Only
// when it cannot even be moved aside (permissions, dead disk: an
// operator problem, not a stale image) is the result (false, error).
func Load(path string, decode func(data []byte) error) (quarantined bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err == nil {
		err = decode(data)
	}
	if err == nil {
		return false, nil
	}
	if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
		return false, fmt.Errorf("durable: quarantining %s: %v (cause: %w)", path, rerr, err)
	}
	return true, err
}
