// Package obs is not built: it is the input that proves the logging
// rule fires through an import alias and on a method value.
package obs

import (
	"fmt"
	stdlog "log"
	"os"
)

func report(n int) {
	stdlog.Println("records", n)
	logf := stdlog.Printf
	logf("records %d", n)
	fmt.Fprintf(os.Stderr, "records %d\n", n) // writes to a given stream pass
	fmt.Print(n)
}
