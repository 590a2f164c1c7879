package loopscope

func (c *Client) FleetLoops(ctx context.Context) ([]FleetLoop, error) {
	var body struct {
		Loops []FleetLoop `json:"loops"`
	}
	_, err := c.get(ctx, "/api/v1/fleet/loops", &body)
	return body.Loops, err
}

func (c *Client) FleetVantages(ctx context.Context) ([]FleetVantage, error) {
	var body struct {
		Vantages []FleetVantage `json:"vantages"`
	}
	_, err := c.get(ctx, "/api/v1/fleet/vantages", &body)
	return body.Vantages, err
}
