// Package serve is not built: the daemon's three list bodies as map
// literals no pkg/loopscope type declares.
package serve

func (d *Daemon) v1Loops(w http.ResponseWriter, events []loopscope.LoopEvent, meta loopscope.Meta) {
	d.writeV1(w, http.StatusOK, map[string]any{"events": events}, meta)
}

func (d *Daemon) v1Sources(w http.ResponseWriter) {
	d.writeV1(w, http.StatusOK, map[string]any{"sources": d.sourceInfos()}, loopscope.Meta{})
}

func (d *Daemon) v1Trace(w http.ResponseWriter) {
	d.writeV1(w, http.StatusOK, map[string]any{"trails": d.cfg.Flight.TrailIDs()}, loopscope.Meta{})
}

// A map that is not a body is legal.
var validKinds = map[string]bool{"tail": true, "dir": true, "feed": true}
