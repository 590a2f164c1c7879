// Command lsq is not built: its fleet loops and vantages output as maps.
package main

func fleetLoops(loops []loopscope.FleetLoop) (any, error) {
	return map[string]any{"loops": loops}, nil
}

func fleetVantages(vs []loopscope.FleetVantage) (any, error) {
	return map[string]any{"vantages": vs}, nil
}
