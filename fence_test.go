package loopscope_test

import (
	"go/build"
	"regexp"
	"strings"
	"testing"
)

// simulation matches the packages that stand in for the paper's
// backbone (the simulator, its routing protocols, traffic and tap) and
// the packages only the paper regenerator uses.
var simulation = regexp.MustCompile(`^loopscope/(internal/(netsim|events|scenario|capture|traffic|routing/(igp|bgp|dvr))|cmd/paperrepro/internal)(/|$)`)

// TestShippingBinariesLinkNoSimulator walks the non-test imports of
// every shipping binary and fails on any simulation package: the
// detectors read packet traces and FIB snapshots, never a simulated
// network.
func TestShippingBinariesLinkNoSimulator(t *testing.T) {
	for _, bin := range []string{"loopdetect", "loopscoped", "loopscope-agg", "fibscan", "lsq"} {
		root := "loopscope/cmd/" + bin
		// via maps each package reached to the package that imported it.
		via := map[string]string{root: ""}
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			pkg := queue[0]
			if simulation.MatchString(pkg) {
				chain := pkg
				for p := via[pkg]; p != ""; p = via[p] {
					chain = p + " -> " + chain
				}
				t.Errorf("%s links the simulator: %s", bin, chain)
				continue
			}
			p, err := build.ImportDir(strings.TrimPrefix(pkg, "loopscope/"), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range p.Imports {
				if _, seen := via[imp]; !seen && strings.HasPrefix(imp, "loopscope/") {
					via[imp] = pkg
					queue = append(queue, imp)
				}
			}
		}
	}
}
