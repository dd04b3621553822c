package experiments

import (
	"fmt"
	"io"
	"reflect"
	"strings"
)

// A tabular result declares its columns on its row type, once per field:
//
//	Mean float64 `col:"mean(µs),%12.1f,mean_us"`
//
// The tag is the text header, the text verb and the CSV name. writeTable
// prints each row through the verbs, one space apart, under the headers
// padded to each verb's width and alignment; writeCSV prints the CSV names
// and each value with %v. Untagged fields are not columns.

// table is a row type's column schema as Fprintf formats.
type table struct {
	fields            []int // struct field index of each column
	textHead, textRow string
	csvHead, csvRow   string
}

// tableOf reads R's col tags.
func tableOf[R any]() table {
	rt := reflect.TypeOf((*R)(nil)).Elem()
	var t table
	var heads, verbs, names []string
	for i := 0; i < rt.NumField(); i++ {
		tag, ok := rt.Field(i).Tag.Lookup("col")
		if !ok {
			continue
		}
		parts := strings.Split(tag, ",")
		if len(parts) != 3 {
			panic(fmt.Sprintf("experiments: %s.%s: col tag %q is not \"header,verb,csv\"", rt.Name(), rt.Field(i).Name, tag))
		}
		t.fields = append(t.fields, i)
		heads = append(heads, fmt.Sprintf(headerVerb(parts[1]), parts[0]))
		verbs = append(verbs, parts[1])
		names = append(names, parts[2])
	}
	t.textHead = strings.Join(heads, " ") + "\n"
	t.textRow = strings.Join(verbs, " ") + "\n"
	t.csvHead = strings.Join(names, ",") + "\n"
	t.csvRow = strings.TrimPrefix(strings.Repeat(",%v", len(names)), ",") + "\n"
	return t
}

// headerVerb is the string verb with a value verb's flags and width and no
// precision: "%-10.1f" → "%-10s", "%12v" → "%12s".
func headerVerb(verb string) string {
	spec := strings.TrimPrefix(verb, "%")
	end := strings.IndexFunc(spec, func(r rune) bool { return r != '-' && (r < '0' || r > '9') })
	if end < 0 {
		end = len(spec)
	}
	return "%" + spec[:end] + "s"
}

// writeTable renders rows as text under title and a blank line.
func writeTable[R any](w io.Writer, title string, rows []R) error {
	t := tableOf[R]()
	return writeRows(w, t.fields, title+"\n\n"+t.textHead, t.textRow, rows)
}

// writeCSV renders rows as CSV with a header line.
func writeCSV[R any](w io.Writer, rows []R) error {
	t := tableOf[R]()
	return writeRows(w, t.fields, t.csvHead, t.csvRow, rows)
}

// writeRows prints head, then each row's fields through format, and
// returns the first write error.
func writeRows[R any](w io.Writer, fields []int, head, format string, rows []R) error {
	if _, err := io.WriteString(w, head); err != nil {
		return err
	}
	args := make([]any, len(fields))
	for i := range rows {
		row := reflect.ValueOf(&rows[i]).Elem()
		for j, f := range fields {
			args[j] = row.Field(f).Interface()
		}
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return err
		}
	}
	return nil
}

// errWriter is a sticky-error writer for hand-written result writers: once
// a write fails it drops every later one, and err holds the first failure.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}
