package analysis

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/stats"
)

// Figure is one of the paper's tables or figures, declared once for
// both of its forms: the text table Text prints and the CSV file
// FigureCSVs writes. Either form has one row per key and one column
// per report.
type Figure struct {
	// Name is the figure's experiment name: "table1", "table2",
	// "fig2" … "fig9".
	Name string

	title   string // the text form's first line
	axis    string // the text form's first-column heading
	csv     string // the CSV file name; "" for a table with no CSV form
	csvAxis string // the CSV header's first cell
	prec    int    // decimals of a value's text cell; CSV cells carry 4
	// names, when set, head the rows, and the row keys are their
	// indices; otherwise keys gives the keys and a key heads its row.
	names []string
	keys  func(reports []*Report) []float64
	// textMax, when non-zero, is the last key of the text form: the
	// text of Figure 2 stops at TTL delta 16, its CSV does not.
	textMax float64
	// value is one report's cell in the row of key.
	value func(r *Report, key float64) float64
	// cell, set for Tables I and II in place of value, is one report's
	// cell in row i as printed: a duration, a rate or a count.
	cell func(r *Report, i int) string
	// dests marks Figure 7, which is not a table but one trace's
	// replica-stream destinations over time.
	dests bool
}

// Figures are the paper's tables and figures, in the order
// `loopdetect -report` prints them.
var Figures = []Figure{
	{Name: "table1", title: "Table I: details of traces",
		names: []string{"length", "avg bw (Mbps)", "packets", "looped packets"},
		cell: func(r *Report, i int) string {
			return [...]string{r.Duration.Round(time.Second).String(), strconv.FormatFloat(r.AvgBandwidthMbps, 'f', 1, 64),
				strconv.Itoa(r.TotalPackets), strconv.Itoa(r.LoopedPackets)}[i]
		}},
	{Name: "table2", title: "Table II: number of routing loops",
		names: []string{"replica streams", "routing loops"},
		cell: func(r *Report, i int) string {
			return [...]string{strconv.Itoa(r.ReplicaStreams), strconv.Itoa(r.RoutingLoops)}[i]
		}},
	{Name: "fig2", title: "Figure 2: TTL delta distribution (fraction of replica streams)",
		axis: "ttl delta", csv: "fig2_ttl_delta.csv", csvAxis: "ttl_delta", prec: 3,
		keys: ttlDeltas, textMax: 16,
		value: func(r *Report, d float64) float64 { return r.TTLDelta.Fraction(int(d)) }},
	{Name: "fig3", title: "Figure 3: CDF of the number of replicas in a replica stream",
		axis: "size [packets]", csv: "fig3_replicas_cdf.csv", csvAxis: "replicas", prec: 3,
		keys:  points(2, 4, 8, 16, 31, 40, 63, 100, 127, 200),
		value: cdfAt(func(r *Report) *stats.CDF { return r.ReplicasPerStream })},
	{Name: "fig4", title: "Figure 4: CDF of inter-replica spacing time",
		axis: "spacing [ms]", csv: "fig4_spacing_cdf.csv", csvAxis: "spacing_ms", prec: 3,
		keys:  points(0.5, 1, 2, 5, 8, 10, 22, 50, 100, 500),
		value: cdfAt(func(r *Report) *stats.CDF { return r.SpacingMs })},
	{Name: "fig5", title: "Figure 5: traffic type distribution of all traffic (fraction of packets)",
		axis: "class", csv: "fig5_all_classes.csv", csvAxis: "class", prec: 4,
		names: packet.ClassNames[:],
		value: func(r *Report, c float64) float64 { return r.AllClassFrac[int(c)] }},
	{Name: "fig6", title: "Figure 6: traffic type distribution of looped traffic (fraction of looped packets)",
		axis: "class", csv: "fig6_looped_classes.csv", csvAxis: "class", prec: 4,
		names: packet.ClassNames[:],
		value: func(r *Report, c float64) float64 { return r.LoopedClassFrac[int(c)] }},
	{Name: "fig7", title: "Figure 7: destination addresses of replica streams in",
		csv: "fig7_destinations.csv", dests: true},
	{Name: "fig8", title: "Figure 8: CDF of replica stream duration",
		axis: "duration [ms]", csv: "fig8_stream_duration_cdf.csv", csvAxis: "duration_ms", prec: 3,
		keys:  points(1, 10, 50, 100, 150, 200, 300, 400, 500, 700, 800, 1000, 5000),
		value: cdfAt(func(r *Report) *stats.CDF { return r.StreamDurationMs })},
	{Name: "fig9", title: "Figure 9: CDF of routing loop duration",
		axis: "duration [s]", csv: "fig9_loop_duration_cdf.csv", csvAxis: "duration_s", prec: 3,
		keys:  points(0.1, 0.5, 1, 2, 5, 10, 30, 60, 120, 300),
		value: cdfAt(func(r *Report) *stats.CDF { return r.LoopDurationSec })},
}

// points is a fixed list of row keys.
func points(xs ...float64) func([]*Report) []float64 {
	return func([]*Report) []float64 { return xs }
}

// cdfAt reads the CDF pick selects at the row's key.
func cdfAt(pick func(*Report) *stats.CDF) func(*Report, float64) float64 {
	return func(r *Report, x float64) float64 { return pick(r).At(x) }
}

// ttlDeltas are Figure 2's keys: every delta from 2 to the largest any
// report saw.
func ttlDeltas(reports []*Report) []float64 {
	top := int64(2)
	for _, r := range reports {
		_, hi := r.TTLDelta.MinMax()
		top = max(top, hi)
	}
	var keys []float64
	for d := int64(2); d <= top; d++ {
		keys = append(keys, float64(d))
	}
	return keys
}

// rows returns f's row keys over reports and the heading of each.
func (f Figure) rows(reports []*Report) (keys []float64, heads []string) {
	if f.names != nil {
		for i, name := range f.names {
			keys, heads = append(keys, float64(i)), append(heads, name)
		}
		return keys, heads
	}
	keys = f.keys(reports)
	for _, x := range keys {
		heads = append(heads, strconv.FormatFloat(x, 'g', -1, 64))
	}
	return keys, heads
}

// at is r's cell in row i, whose key is x, with prec decimals if it
// is a value.
func (f Figure) at(r *Report, i int, x float64, prec int) string {
	if f.cell != nil {
		return f.cell(r, i)
	}
	return strconv.FormatFloat(f.value(r, x), 'f', prec, 64)
}

// figure7Trace is the report Figure 7 plots: the fourth, as the paper
// plots Backbone 4, or the last of fewer.
func figure7Trace(reports []*Report) *Report {
	return reports[min(3, len(reports)-1)]
}

// Text renders f as a fixed-width table, one column per report.
// Figure 7 lists at most maxRows destinations (0: all); the other
// figures ignore maxRows.
func (f Figure) Text(reports []*Report, maxRows int) string {
	if f.dests {
		return f.destText(figure7Trace(reports), maxRows)
	}
	var b strings.Builder
	b.WriteString(f.title + "\n")
	fmt.Fprintf(&b, "%-16s", f.axis)
	for _, r := range reports {
		fmt.Fprintf(&b, "  %12s", r.Link)
	}
	b.WriteByte('\n')
	keys, heads := f.rows(reports)
	for i, x := range keys {
		if f.textMax != 0 && x > f.textMax {
			break
		}
		fmt.Fprintf(&b, "%-16s", heads[i])
		for _, r := range reports {
			fmt.Fprintf(&b, "  %12s", f.at(r, i, x, f.prec))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// destText prints r's destination-address time series.
func (f Figure) destText(r *Report, maxRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", f.title, r.Link)
	fmt.Fprintf(&b, "%-14s  %-16s  %s\n", "time", "destination", "class-C?")
	rows := r.DestSeries
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	for _, p := range rows {
		mark := ""
		if classC(p.Dst) {
			mark = "C"
		}
		fmt.Fprintf(&b, "%-14s  %-16s  %s\n", p.Time.Round(time.Millisecond), p.Dst, mark)
	}
	if len(r.DestSeries) > len(rows) {
		fmt.Fprintf(&b, "... (%d more)\n", len(r.DestSeries)-len(rows))
	}
	return b.String()
}

// FigureCSVs writes every figure's CSV form through open, which
// receives a file name ("fig2_ttl_delta.csv", ...) and returns the
// writer; FigureCSVs closes it. Figure 7 plots Backbone 4 and is
// written only when there is a fourth report.
func FigureCSVs(reports []*Report, open func(name string) (io.WriteCloser, error)) error {
	for _, f := range Figures {
		if f.csv == "" || (f.dests && len(reports) < 4) {
			continue
		}
		wc, err := open(f.csv)
		if err != nil {
			return fmt.Errorf("opening %s: %w", f.csv, err)
		}
		if err := f.writeCSV(wc, reports); err != nil {
			wc.Close()
			return fmt.Errorf("writing %s: %w", f.csv, err)
		}
		if err := wc.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes f's CSV form: a header of the axis and the links,
// then one row per key; Figure 7 is its trace's (time_ns, destination)
// pairs.
func (f Figure) writeCSV(w io.Writer, reports []*Report) error {
	var rows [][]string
	if f.dests {
		rows = append(rows, []string{"time_ns", "destination"})
		for _, p := range figure7Trace(reports).DestSeries {
			rows = append(rows, []string{strconv.FormatInt(int64(p.Time), 10), p.Dst.String()})
		}
	} else {
		header := []string{f.csvAxis}
		for _, r := range reports {
			header = append(header, r.Link)
		}
		rows = append(rows, header)
		keys, heads := f.rows(reports)
		for i, x := range keys {
			row := []string{heads[i]}
			for _, r := range reports {
				row = append(row, f.at(r, i, x, 4))
			}
			rows = append(rows, row)
		}
	}
	return csv.NewWriter(w).WriteAll(rows)
}

// classC reports whether dst lies in the historical class-C space
// (192.0.0.0/3), where the paper sees Figure 7's destinations cluster.
func classC(dst packet.Addr) bool { return dst[0] >= 192 && dst[0] < 224 }
