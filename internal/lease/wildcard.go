package lease

// Wildcard leases implement §4.4's "simple, albeit somewhat extreme,
// workaround" for transactions that keep changing their data access pattern
// across re-executions: a lease on the whole set of conflict classes. A
// wildcard request conflicts with every other request; it is enabled only
// when every older request has been released, and while it is enabled no
// other request can be. The replication manager escalates to a wildcard
// after repeated re-executions fail to stabilize a transaction's data-set,
// which deterministically bounds its aborts at the price of a temporary
// bridling of concurrency.

// GetLeaseEverything acquires a wildcard lease, optionally releasing a
// previously held request atomically in the total order (the §4.4
// piggyback). It blocks until the wildcard is enabled: this replica then has
// exclusive commit rights cluster-wide.
func (m *Manager) GetLeaseEverything(old RequestID) (RequestID, error) {
	m.mu.Lock()
	if err := m.usableLocked(); err != nil {
		m.mu.Unlock()
		return RequestID{}, err
	}

	var freeFirst []RequestID
	if old != (RequestID{}) {
		if st := m.reqs[old]; st != nil && st.local {
			st.active--
			m.blockLocked(st)
			st.replacePending = true
			freeFirst = []RequestID{old}
		}
	}

	m.nextSeq++
	req := &Request{
		ID:        RequestID{Proc: m.self, Seq: m.nextSeq},
		Wildcard:  true,
		FreeFirst: freeFirst,
	}
	st := &reqState{req: req, local: true, active: 1}
	m.reqs[req.ID] = st
	m.nRequested.Inc()
	m.mu.Unlock()

	if err := m.bcast.OABroadcast(req); err != nil {
		m.mu.Lock()
		delete(m.reqs, req.ID)
		if old != (RequestID{}) {
			if st := m.reqs[old]; st != nil && st.local {
				st.replacePending = false
				m.maybeFreeAllLocked()
			}
		}
		m.mu.Unlock()
		return RequestID{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.waitEnabledLocked(st); err != nil {
		m.releaseWaiterLocked(st)
		return RequestID{}, err
	}
	m.nAcquired.Inc()
	return req.ID, nil
}

// wildcardEnabledLocked reports whether a wildcard request holds the global
// lease: every other unreleased enqueued request must be younger.
func (m *Manager) wildcardEnabledLocked(st *reqState) bool {
	for _, other := range m.reqs {
		if other == st || other.freed || !other.enqueued {
			continue
		}
		if other.pos < st.pos {
			return false
		}
	}
	return true
}

// blockedByWildcardLocked reports whether an older unreleased wildcard
// precedes the request. It scans only the wildcard index, normally empty.
func (m *Manager) blockedByWildcardLocked(st *reqState) bool {
	for _, other := range m.liveLocked(&m.wilds) {
		if other != st && other.pos < st.pos {
			return true
		}
	}
	return false
}
