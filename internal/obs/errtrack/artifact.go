package errtrack

import (
	"encoding/json"
	"fmt"
	"os"
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
