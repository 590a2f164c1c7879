// Package loopscope is library code too.
package loopscope

import "log"

func mustDial(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
