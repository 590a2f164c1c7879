package loopscope

// The client's bodies as anonymous structs, decoded in the methods.

func (c *Client) Loops(ctx context.Context) ([]LoopEvent, error) {
	var body struct {
		Events []LoopEvent `json:"events"`
	}
	_, err := c.get(ctx, "/api/v1/loops", &body)
	return body.Events, err
}

func (c *Client) Sources(ctx context.Context) ([]Source, error) {
	var body struct {
		Sources []Source `json:"sources"`
	}
	_, err := c.get(ctx, "/api/v1/sources", &body)
	return body.Sources, err
}

func (c *Client) TraceIDs(ctx context.Context) ([]string, error) {
	var body struct {
		Trails []string `json:"trails"`
	}
	_, err := c.get(ctx, "/api/v1/trace", &body)
	return body.Trails, err
}

func (c *Client) get(ctx context.Context, path string, data any) (Meta, error) {
	var env struct {
		Data  json.RawMessage `json:"data"`
		Meta  Meta            `json:"meta"`
		Error *APIError       `json:"error"`
	}
	err := json.Unmarshal(c.fetch(ctx, path), &env)
	return env.Meta, err
}

// An untagged anonymous struct is no body: legal.
func pairs() []struct{ name, value string } {
	return []struct{ name, value string }{{"a", "b"}}
}
