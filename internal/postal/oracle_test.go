package postal

// CompletionTime reads the postal completion off OptimalTree's own Finish
// times, so the parity tests use it as the oracle for model.NodeModel
// with unit costs.

// CompletionTime returns the postal completion time of the tree (the
// largest Finish), which for OptimalTree equals BroadcastTime.
func (t *Tree) CompletionTime() int64 {
	var m int64
	for _, f := range t.Finish {
		if f > m {
			m = f
		}
	}
	return m
}
