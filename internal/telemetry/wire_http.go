package telemetry

import (
	"io"

	"pbox/internal/wire"
)

// AttachWire connects the wire-ingestion server's admission counters to the
// exporter: /metrics gains the pbox_self_wire_* series and /self gains a
// "wire" section (both rendered from the server's atomics on each request).
// Call once during wiring, before the exporter starts serving.
func (e *Exporter) AttachWire(s *wire.Server) { e.wireSrv = s }

// writeWireMetrics renders the wire server's counters as the
// pbox_self_wire_* Prometheus series.
func writeWireMetrics(w io.Writer, st wire.Stats) {
	writeSelfCounter(w, "pbox_self_wire_conns_total", "Wire-protocol connections accepted.", st.ConnsTotal)
	writeSelfGauge(w, "pbox_self_wire_conns_active", "Wire-protocol connections currently open.", st.ConnsActive)
	writeSelfCounter(w, "pbox_self_wire_frames_total", "Wire frames decoded.", st.Frames)
	writeSelfCounter(w, "pbox_self_wire_events_total", "Wire event ops admitted and applied.", st.Events)
	writeSelfCounter(w, "pbox_self_wire_shed_conn_total", "Wire event ops shed by a per-connection token bucket.", st.ShedConn)
	writeSelfCounter(w, "pbox_self_wire_shed_global_total", "Wire event ops shed by the global event-rate ceiling.", st.ShedGlobal)
	writeSelfCounter(w, "pbox_self_wire_registers_total", "Wire tenants registered.", st.Registers)
	writeSelfCounter(w, "pbox_self_wire_pings_total", "Wire ping ops answered.", st.Pings)
	writeSelfCounter(w, "pbox_self_wire_bind_refused_total", "Wire tenant selects refused by a shared-thread penalty.", st.BindRefused)
	writeSelfCounter(w, "pbox_self_wire_errors_total", "Wire protocol errors (connection torn down).", st.Errors)
}
