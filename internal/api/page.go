package api

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Page is one human status page, /api/v1/statusz: a title, a summary
// line and headed sections. Each tier builds its page from the
// documents its API serves; the page renders the same way whichever
// tier built it.
type Page struct {
	Title    string
	Summary  string
	Sections []Section
}

// Section is a heading over a table, a paragraph (Note), or both. A
// section with no Columns has no table.
type Section struct {
	Heading string
	Columns []column
	Rows    [][]Cell
	Note    string
}

// column heads a table column; a numeric column's cells are
// right-aligned.
type column struct {
	Name string
	Num  bool
}

// Cell is one table cell: text, linked to Href when that is set.
type Cell struct {
	Text string
	Href string
}

// Columns heads a table. A name ending in "#" heads a numeric column;
// the "#" is not shown.
func Columns(names ...string) []column {
	cols := make([]column, len(names))
	for i, n := range names {
		name, num := strings.CutSuffix(n, "#")
		cols[i] = column{Name: name, Num: num}
	}
	return cols
}

// Row makes one table row: a Cell stays as it is, any other value is
// printed as fmt.Sprint prints it.
func Row(values ...any) []Cell {
	row := make([]Cell, len(values))
	for i, v := range values {
		if c, ok := v.(Cell); ok {
			row[i] = c
		} else {
			row[i] = Cell{Text: fmt.Sprint(v)}
		}
	}
	return row
}

// MapSection is a two-column table of m, by key; none when m is empty.
func MapSection[V any](heading string, cols []column, m map[string]V) []Section {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Strings(keys)
	s := Section{Heading: heading, Columns: cols}
	for _, k := range keys {
		s.Rows = append(s.Rows, Row(k, m[k]))
	}
	return []Section{s}
}

// HealthSection is the component health table; none when states is
// empty.
func HealthSection(states map[string]string) []Section {
	return MapSection("component health", Columns("component", "state"), states)
}

// Duration formats nanoseconds for a cell, to the microsecond.
func Duration(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

var pageTmpl = template.Must(template.New("statusz").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}} status</title>
<style>
body { font-family: monospace; margin: 2em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #999; padding: 0.25em 0.75em; text-align: left; }
th { background: #eee; }
.num { text-align: right; }
</style></head><body>
<h1>{{.Title}}</h1>
<p>{{.Summary}}</p>
{{range .Sections}}
<h2>{{.Heading}}</h2>
{{$cols := .Columns}}{{if $cols}}<table>
<tr>{{range $cols}}<th{{if .Num}} class="num"{{end}}>{{.Name}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range $i, $_ := .}}<td{{if (index $cols $i).Num}} class="num"{{end}}>{{if .Href}}<a href="{{.Href}}">{{.Text}}</a>{{else}}{{.Text}}{{end}}</td>{{end}}</tr>
{{end}}</table>
{{end}}{{with .Note}}<p>{{.}}</p>
{{end}}{{end}}</body></html>
`))

// WritePage renders p as the reply.
func WritePage(w http.ResponseWriter, p Page) error {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	return pageTmpl.Execute(w, p)
}
