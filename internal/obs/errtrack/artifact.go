package errtrack

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

// WriteFile writes the report as the -errtrack artifact: indented JSON,
// schema-stamped, loadable by LoadReport and cmd/errmap.
func (r Report) WriteFile(path string) error {
	r.Schema = ReportSchema
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadReport reads and validates an -errtrack artifact.
func LoadReport(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("errtrack: parsing %s: %w", path, err)
	}
	if r.Schema != ReportSchema {
		return r, fmt.Errorf("errtrack: %s has schema %d, want %d", path, r.Schema, ReportSchema)
	}
	return r, nil
}

// Replay feeds a recorded JSONL event stream through a fresh tracker
// and returns it. Malformed lines are counted, not fatal — stream
// integrity is obswatch's job; this reconstructs as much of the ledger
// as the stream carries.
func Replay(r io.Reader) (*Tracker, int64, error) {
	t := New()
	var bad int64
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, err := br.ReadString('\n')
		if s := strings.TrimSpace(line); s != "" {
			var ev obs.Event
			if json.Unmarshal([]byte(s), &ev) != nil {
				bad++
			} else {
				t.Observe(ev)
			}
		}
		if err == io.EOF {
			return t, bad, nil
		}
		if err != nil {
			return t, bad, err
		}
	}
}

// ReplayFile is Replay over a file path.
func ReplayFile(path string) (*Tracker, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return Replay(f)
}
