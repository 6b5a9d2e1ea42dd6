package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"pbox/internal/capture"
	"pbox/internal/cases"
)

// CaseTrace describes one recorded case capture log.
type CaseTrace struct {
	CaseID   string `json:"case"`
	Dir      string `json:"dir"`
	Duration string `json:"duration"`
	Records  int    `json:"records"`
	Bytes    int64  `json:"bytes"`
	Dropped  int64  `json:"dropped"`
}

// RecordCases runs each selected case under pBox with interference and a
// capture recorder attached, writing one log directory per case under
// outDir (clobbering a previous recording of the same case). These logs are
// the raw material for `pboxreplay sweep` and the committed regression
// corpus in internal/capture/testdata/corpus.
func RecordCases(cfg Config, ids []string, outDir string) ([]CaseTrace, error) {
	var out []CaseTrace
	for _, c := range selectCases(ids) {
		d := cfg.caseDuration(c.ID)
		dir := filepath.Join(outDir, c.ID)
		if err := os.RemoveAll(dir); err != nil {
			return out, err
		}
		rec, err := capture.NewRecorder(capture.RecorderConfig{Dir: dir})
		if err != nil {
			return out, err
		}
		rc := cases.RunConfig{Solution: cases.SolutionPBox, Interference: true, Duration: d}
		rc.ManagerOptions.Observer = rec
		cases.Run(c, rc)
		if err := rec.Close(); err != nil {
			return out, fmt.Errorf("case %s: recorder: %w", c.ID, err)
		}
		log, err := capture.ReadLog(dir)
		if err != nil {
			return out, fmt.Errorf("case %s: read back: %w", c.ID, err)
		}
		out = append(out, CaseTrace{
			CaseID:   c.ID,
			Dir:      dir,
			Duration: d.String(),
			Records:  log.Info.Records,
			Bytes:    log.Info.Bytes,
			Dropped:  rec.Dropped(),
		})
	}
	return out, nil
}
