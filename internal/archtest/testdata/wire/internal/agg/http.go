// Package agg is not built: the aggregator's two list bodies as maps.
package agg

func (a *Aggregator) v1FleetLoops(w http.ResponseWriter, loops []FleetLoop, total int64) {
	api.WriteOK(w, http.StatusOK, map[string]any{"loops": loops}, loopscope.Meta{Total: &total})
}

func (a *Aggregator) v1FleetVantages(w http.ResponseWriter) {
	api.WriteOK(w, http.StatusOK, map[string]interface{}{"vantages": a.Vantages()}, loopscope.Meta{})
}
