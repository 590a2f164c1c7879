package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"loopscope/internal/routing"
	"loopscope/internal/traffic"
)

// ops counts correctness checks: every check is one attempted
// operation, every violated one a failed operation. A repetition with
// a failed operation contributes no timing sample.
type ops struct {
	Attempted int
	Failed    int
	// Notes keeps the first few failure descriptions for the report.
	Notes []string
}

// check records one operation.
func (o *ops) check(ok bool, format string, args ...any) bool {
	failed := 0
	if !ok {
		failed = 1
	}
	o.count(1, failed, format, args...)
	return ok
}

// count records attempted operations of which failed went wrong.
func (o *ops) count(attempted, failed int, format string, args ...any) {
	o.Attempted += attempted
	o.Failed += failed
	if failed > 0 && len(o.Notes) < 8 {
		o.Notes = append(o.Notes, fmt.Sprintf("%d× ", failed)+fmt.Sprintf(format, args...))
	}
}

// loopRow is one detected loop in the form every output format can be
// reduced to.
type loopRow struct {
	Prefix   string
	StartNs  int64
	EndNs    int64
	TTLDelta int
	Streams  int
	Replicas int
}

// coarse reduces a row to what `loopdetect -stream` prints: times
// rounded to the millisecond, no TTL delta.
func (r loopRow) coarse() loopRow {
	r.StartNs = int64(time.Duration(r.StartNs).Round(time.Millisecond))
	r.EndNs = int64(time.Duration(r.EndNs).Round(time.Millisecond))
	r.TTLDelta = 0
	return r
}

// digest hashes a loop set independent of emission order.
func digest(rows []loopRow, coarse bool) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		if coarse {
			r = r.coarse()
		}
		lines[i] = fmt.Sprintf("%s %d %d %d %d %d", r.Prefix, r.StartNs, r.EndNs, r.TTLDelta, r.Streams, r.Replicas)
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// parseDetectJSON reads a `loopdetect -json` document.
func parseDetectJSON(out []byte) (packets int, rows []loopRow, err error) {
	var doc struct {
		Packets int `json:"packets"`
		Streams []struct {
			ID       int `json:"id"`
			TTLDelta int `json:"ttlDelta"`
		} `json:"streams"`
		Loops []struct {
			Prefix   string `json:"prefix"`
			StartNs  int64  `json:"startNs"`
			EndNs    int64  `json:"endNs"`
			Streams  []int  `json:"streamIds"`
			Replicas int    `json:"replicas"`
		} `json:"loops"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		return 0, nil, fmt.Errorf("loopdetect -json output: %w", err)
	}
	delta := make(map[int]int, len(doc.Streams))
	for _, s := range doc.Streams {
		delta[s.ID] = s.TTLDelta
	}
	for _, l := range doc.Loops {
		row := loopRow{Prefix: l.Prefix, StartNs: l.StartNs, EndNs: l.EndNs,
			Streams: len(l.Streams), Replicas: l.Replicas}
		if len(l.Streams) > 0 {
			// The daemon's event carries the first stream's delta.
			row.TTLDelta = delta[l.Streams[0]]
		}
		rows = append(rows, row)
	}
	return doc.Packets, rows, nil
}

var (
	streamLoopRE  = regexp.MustCompile(`^loop\s+\d+: (\S+)\s+(\S+) \.\. (\S+)\s+\(\S+\)\s+(\d+) streams, (\d+) replicas$`)
	streamTotalRE = regexp.MustCompile(`^(\d+) packets, `)
)

// parseDetectStream reads the text `loopdetect -stream` prints. The
// rows come back coarse (millisecond times, no TTL delta).
func parseDetectStream(out []byte) (packets int, rows []loopRow, err error) {
	packets = -1
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if m := streamLoopRE.FindStringSubmatch(line); m != nil {
			start, err1 := time.ParseDuration(m[2])
			end, err2 := time.ParseDuration(m[3])
			if err1 != nil || err2 != nil {
				return 0, nil, fmt.Errorf("loopdetect -stream: bad loop line %q", line)
			}
			streams, _ := strconv.Atoi(m[4])
			replicas, _ := strconv.Atoi(m[5])
			rows = append(rows, loopRow{Prefix: m[1], StartNs: int64(start), EndNs: int64(end),
				Streams: streams, Replicas: replicas})
		} else if m := streamTotalRE.FindStringSubmatch(line); m != nil {
			packets, _ = strconv.Atoi(m[1])
		}
	}
	if packets < 0 {
		return 0, nil, fmt.Errorf("loopdetect -stream: no summary line in output")
	}
	return packets, rows, nil
}

// parseJournal reads a loopscoped JSONL journal; truncated counts
// drain-flushed partial events, which a run to a genuine end of file
// must not produce.
func parseJournal(path string) (rows []loopRow, truncated int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Prefix    string `json:"prefix"`
			StartNs   int64  `json:"startNs"`
			EndNs     int64  `json:"endNs"`
			Streams   int    `json:"streams"`
			Replicas  int    `json:"replicas"`
			TTLDelta  int    `json:"ttlDelta"`
			Truncated bool   `json:"truncated"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if ev.Truncated {
			truncated++
		}
		rows = append(rows, loopRow{Prefix: ev.Prefix, StartNs: ev.StartNs, EndNs: ev.EndNs,
			TTLDelta: ev.TTLDelta, Streams: ev.Streams, Replicas: ev.Replicas})
	}
	return rows, truncated, sc.Err()
}

// checkTruth scores detected loops against the scripted ones at
// precision 1.0 and recall 1.0: a detected loop must overlap a
// scripted loop on the same prefix that no other detected loop has
// claimed (else it is spurious), and every scripted loop must be
// claimed (else it was missed).
func checkTruth(o *ops, rows []loopRow, truth []traffic.LoopSpec) {
	claimed := make([]bool, len(truth))
	spurious := 0
	for _, r := range rows {
		hit := false
		for i, l := range truth {
			if !claimed[i] && l.Prefix.String() == r.Prefix &&
				r.StartNs < int64(l.Start+l.Duration) && r.EndNs >= int64(l.Start) {
				claimed[i], hit = true, true
				break
			}
		}
		if !hit {
			spurious++
		}
	}
	missed := 0
	for _, c := range claimed {
		if !c {
			missed++
		}
	}
	o.count(len(rows), spurious, "detected loops match no scripted loop")
	o.count(len(truth), missed, "scripted loops not detected")
}

// parseFibscan reads fibscan's text report into the set of prefixes it
// found in a cycle, per snapshot.
func parseFibscan(out []byte) [][]string {
	var snaps [][]string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "t="):
			snaps = append(snaps, nil)
		case strings.HasPrefix(line, "    prefix ") && len(snaps) > 0:
			snaps[len(snaps)-1] = append(snaps[len(snaps)-1], strings.TrimPrefix(line, "    prefix "))
		}
	}
	return snaps
}

// checkFibscan requires the scan to report exactly the looped prefixes
// the generator injected, snapshot by snapshot.
func checkFibscan(o *ops, got [][]string, want [][]routing.Prefix) {
	if !o.check(len(got) == len(want), "fibscan reported %d snapshots, want %d", len(got), len(want)) {
		return
	}
	for i := range want {
		found := make(map[string]bool, len(got[i]))
		for _, p := range got[i] {
			found[p] = true
		}
		missed := 0
		for _, p := range want[i] {
			if !found[p.String()] {
				missed++
			}
			delete(found, p.String())
		}
		o.count(len(want[i]), missed, "looped prefixes missed in snapshot %d", i)
		o.count(len(got[i]), len(found), "prefixes wrongly reported looped in snapshot %d", i)
	}
}
