package telemetry

import (
	"net/http"
	"time"
)

// dumpTimeout bounds how long a /flightrec/dump request waits for the
// recorder's writer goroutine.
const dumpTimeout = 10 * time.Second

// FlightRecorder is the slice of *flightrec.Recorder the HTTP API serves.
// Declared here because flightrec builds its bundles from this package's
// JSON forms, so the import runs flightrec → telemetry.
type FlightRecorder interface {
	// Incidents lists the bundle ids, oldest first.
	Incidents() ([]string, error)
	// IncidentJSON returns one bundle as written to disk.
	IncidentJSON(id string) ([]byte, error)
	// Dump freezes a bundle now and returns its id.
	Dump(reason string, timeout time.Duration) (string, error)
}

// AttachFlightRecorder mounts the flight-recorder API on the exporter:
//
//	/flightrec/incidents      JSON list of incident bundle ids, oldest first
//	/flightrec/incident?id=X  one bundle
//	/flightrec/dump           POST: freeze a bundle now (operator dump)
//
// Call once during wiring, before the exporter starts serving.
func (e *Exporter) AttachFlightRecorder(rec FlightRecorder) {
	e.mux.HandleFunc("/flightrec/incidents", func(w http.ResponseWriter, r *http.Request) {
		ids, err := rec.Incidents()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if ids == nil {
			ids = []string{}
		}
		writeJSON(w, ids)
	})
	e.mux.HandleFunc("/flightrec/incident", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing id parameter", http.StatusBadRequest)
			return
		}
		data, err := rec.IncidentJSON(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	})
	e.mux.HandleFunc("/flightrec/dump", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		reason := r.URL.Query().Get("reason")
		if reason == "" {
			reason = "operator dump"
		}
		id, err := rec.Dump(reason, dumpTimeout)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, map[string]string{"id": id})
	})
}
