package cache

type Cache struct{ entries map[string]*entry }

type entry struct{ states []state }

type state struct{ sum, checksum uint64 }

type verifier struct{ good []*state }

func verifyState(s state) bool { return s.sum == s.checksum }

func (v *verifier) ok(s *state) bool { return verifyState(*s) }

func (c *Cache) LookupAll(fp string, at int) bool {
	var v verifier
	return v.ok(&c.entries[fp].states[at])
}

// Probe verifies every state of the entry before it decides.
func (c *Cache) Probe(fp string) bool {
	for _, s := range c.entries[fp].states { // want
		if !verifyState(s) {
			return false
		}
	}
	return true
}

func (c *Cache) ProbeFinal(fp string, at int) bool {
	var v verifier
	return v.ok(&c.entries[fp].states[at])
}

// Candidates is EXPLAIN's miss provenance: it may verify the whole entry.
func (c *Cache) Candidates(fp string) (n int) {
	for _, s := range c.entries[fp].states {
		if verifyState(s) {
			n++
		}
	}
	return n
}
