package verify

// OracleAuditMaximality exposes the BFS audit oracle to the external
// test package, which runs the engines through package chordal.
var OracleAuditMaximality = oracleAuditMaximality
