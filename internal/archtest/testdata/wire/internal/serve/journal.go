package serve

// lineID's one-field projection is a struct, not a map literal: legal.
func lineID(line []byte) (string, error) {
	var rec struct {
		ID string `json:"id"`
	}
	err := json.Unmarshal(line, &rec)
	return rec.ID, err
}
