package trace

// For the tests of package trace_test, which can import the packages
// that import this one (chaos).

// EncodeTrace is encodeTrace.
var EncodeTrace = encodeTrace

// Bare returns the policy reader under f's tap: the strict or the
// salvaging reader.
func Bare(f *File) Source { return f.src }
