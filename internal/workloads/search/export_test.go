package search

// Shards returns the instance's shard list: the tests' way to query one
// shard directly.
func (e *Engine) Shards() []*Shard { return e.shards }
