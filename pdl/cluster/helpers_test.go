package cluster

import "testing"

// testFanClient builds a Client with the span machinery wired but no
// network: exactly what stage and settle touch.
func testFanClient(t *testing.T, unitBytes int64, units []int64, policy Policy) *Client {
	t.Helper()
	m, err := NewMap(unitBytes, units, policy)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{m: m, shards: make([]shardConn, len(units))}
	c.fanPool.New = func() any { return newFanout(len(c.shards)) }
	return c
}
