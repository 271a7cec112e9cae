package dataset

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzReadCSV drives the dataset CSV reader with arbitrary bytes, seeded
// from the header and first rows of the committed dataset.csv plus the
// malformed shapes ReadCSV must reject. No input may panic ReadCSV or
// Validate, and every accepted dataset must re-write byte-stably:
// WriteCSV → ReadCSV → WriteCSV yields the same bytes twice.
//
//	go test -run '^$' -fuzz FuzzReadCSV -fuzztime 10s ./internal/dataset
func FuzzReadCSV(f *testing.F) {
	data, err := os.ReadFile("../../dataset.csv")
	if err != nil {
		f.Fatal(err)
	}
	head := strings.SplitAfterN(string(data), "\n", 7)[:6]
	f.Add([]byte(strings.Join(head, "")))
	const header = "p,mx,maxlevel,r0,rhoin,wall_sec,cost_nh,mem_mb\n"
	f.Add([]byte("q" + header[1:] + "4,8,3,0.2,0.05,1,1,1\n")) // wrong header
	f.Add([]byte(header + "4,8,3,0.2,0.05,1,1\n"))             // short row
	f.Add([]byte(header + "4,8,3,0.2,abc,1,1,1\n"))            // non-numeric cell
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Validate may reject an accepted dataset (off-grid features,
		// non-finite responses); it only must not panic.
		_ = d.Validate()
		var first bytes.Buffer
		if err := d.WriteCSV(&first); err != nil {
			t.Fatalf("accepted dataset does not write: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written form of an accepted dataset is rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteCSV(&second); err != nil {
			t.Fatalf("re-read dataset does not write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteCSV -> ReadCSV -> WriteCSV not byte-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
