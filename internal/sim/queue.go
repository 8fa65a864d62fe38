package sim

// event is a message on its way into the buffer together with the sequence
// number that breaks delivery-time ties by insertion order. It is the
// hand-off form between the engine and the scheduler (and across shards, in
// Engine.outbox); the buffer itself stores the message in the slab and the
// order key in an entry — see sched in calqueue.go.
type event struct {
	msg Message
	seq uint64
}

// push enqueues a message with the next sequence number: the shared counter
// normally, or — in sharded executions — a packed per-sender key that is
// independent of shard count and window interleaving (see Engine.packSeq).
func (e *Engine) push(m Message) {
	var ev event
	if e.detSeq {
		ev = event{msg: m, seq: e.packSeq(m.From, e.sidx[m.From], m.To)}
		e.sidx[m.From]++
	} else {
		ev = event{msg: m, seq: e.seq}
		e.seq++
	}
	e.queue.push(&ev)
}
