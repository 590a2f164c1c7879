//go:build !unix

package trace

import "os"

// sysFileID has no portable implementation off Unix; fileID falls back
// to name+size+mtime.
func sysFileID(os.FileInfo) string { return "" }
