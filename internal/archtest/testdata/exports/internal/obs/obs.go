// Package obs declares the names exportAllow lists: one is a test
// helper no other package's non-test code calls, the other is used.
package obs

// TB is listed in exportAllow, yet cmd/tool uses it: the entry is stale.
type TB interface{ Helper() }

// VerifyNoLeaks is listed in exportAllow: other packages' tests share it.
func VerifyNoLeaks(t TB) { t.Helper() }
