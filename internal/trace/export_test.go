package trace

// For the tests of package trace_test, which can import the packages
// that import this one (chaos).

// EncodeTrace is encodeTrace.
var EncodeTrace = encodeTrace

// Bare returns the policy reader under f's tap: the strict or the
// salvaging reader.
func Bare(f *File) Source { return f.src }

// The formats and the budget error these tests name. Non-test callers
// sniff native and pcap, and read the budget error's text.
const (
	FormatNative = formatNative
	FormatPcap   = formatPcap
)

var ErrErrorBudget = errErrorBudget
