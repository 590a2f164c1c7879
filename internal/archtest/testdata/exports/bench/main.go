package main

import "loopscope/internal/table"

func writeAll(w interface {
	Write(table.Row) error
	Flush() error
}, rows []table.Row) error {
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return w.Flush()
}

func main() {
	_ = writeAll(&table.Writer{}, table.Sized(4).Rows())
}
