package dbms

import "tscout/internal/sql"

// StmtCacheCap exposes the statement cache's entry cap to external tests.
const StmtCacheCap = stmtCacheCap

// CachedStatements returns a snapshot of the statement cache.
func (s *Server) CachedStatements() map[string]sql.Statement {
	s.stmtMu.Lock()
	defer s.stmtMu.Unlock()
	out := make(map[string]sql.Statement, len(s.stmtCache))
	for text, st := range s.stmtCache {
		out[text] = st
	}
	return out
}
