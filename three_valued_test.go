package polaris

// threeValuedSetup creates and fills u, w and m: u holds (1,'x'), (2,NULL),
// (NULL,'y'), (4,'z'), w joins u's keys 1, 2 and 4, and m holds an INT and a
// FLOAT column for IN lists whose literals are the other numeric type.
var threeValuedSetup = []string{
	`CREATE TABLE u (a INT, b VARCHAR) WITH (DISTRIBUTION = a)`,
	`INSERT INTO u VALUES (1, 'x'), (2, NULL), (NULL, 'y'), (4, 'z')`,
	`CREATE TABLE w (k INT, t VARCHAR) WITH (DISTRIBUTION = k)`,
	`INSERT INTO w VALUES (1, 'p'), (2, 'q'), (4, NULL)`,
	`CREATE TABLE m (a INT, f FLOAT) WITH (DISTRIBUTION = a)`,
	`INSERT INTO m VALUES (1, 1.0), (2, 2.5), (NULL, NULL), (3, 3.0)`,
}

// threeValuedData holds OR, NOT-over-AND and IN predicates over NULLs to
// answers computed by hand under SQL's three-valued logic — TRUE OR NULL is
// TRUE, FALSE AND NULL is FALSE, x IN (…, NULL) is TRUE or NULL — not taken
// from another path of this engine.
var threeValuedData = matrixDataset{
	name: "three_valued", distributions: 4, budget: 256,
	setup: execAll(threeValuedSetup...), stmts: threeValuedStmts,
}

var threeValuedStmts = []matrixStmt{
	// (2,NULL): TRUE OR NULL; (NULL,'y'): NULL OR TRUE.
	{sql: `SELECT a, b FROM u WHERE a > 1 OR b LIKE 'y%' ORDER BY b`,
		want: "[a b]\n[2 <nil>]\n[<nil> y]\n[4 z]\n"},
	{sql: `SELECT COUNT(*) AS n FROM u WHERE a > 1 OR a <= 1 OR a IS NULL`, want: "[n]\n[4]\n"},
	// (NULL,'y'): NOT (NULL AND FALSE) = NOT FALSE; (2,NULL) stays NULL.
	{sql: `SELECT COUNT(*) AS n FROM u WHERE NOT (a > 1 AND b = 'q')`, want: "[n]\n[3]\n"},
	{sql: `SELECT COUNT(*) AS n FROM u WHERE a IN (1, 4) OR b = 'y'`, want: "[n]\n[3]\n"},
	// (NULL,'y'): NOT (NULL AND FALSE) AND NOT (FALSE AND NULL), TRUE;
	// (2,NULL): its second conjunct is NOT (NULL AND TRUE), NULL.
	{sql: `SELECT COUNT(*) AS n FROM u WHERE NOT (a = 1 AND b IS NULL) AND NOT (b = 'x' AND a > 1)`, want: "[n]\n[3]\n"},
	// The residual WHERE after a join: (2,NULL,2,'q') is NULL OR TRUE.
	{sql: `SELECT u.a, w.t FROM u JOIN w ON u.a = w.k WHERE u.b = 'x' OR w.t = 'q' ORDER BY u.a`,
		want: "[a t]\n[1 p]\n[2 q]\n"},
	// A NULL in the list: a value the list does not hold compares unknown to
	// the NULL, so IN is TRUE or NULL and NOT IN FALSE or NULL — no row
	// passes NOT IN (1, NULL). Without the NULL, 4 passes NOT IN (1, 2).
	{sql: `SELECT COUNT(*) AS n FROM u WHERE a NOT IN (1, NULL)`, want: "[n]\n[0]\n"},
	{sql: `SELECT a, a IN (1, NULL) AS i, a NOT IN (1, NULL) AS ni FROM u ORDER BY a`,
		want: "[a i ni]\n[<nil> <nil> <nil>]\n[1 true false]\n[2 <nil> <nil>]\n[4 <nil> <nil>]\n"},
	{sql: `SELECT COUNT(*) AS n FROM u WHERE NOT (b IN ('x', NULL))`, want: "[n]\n[0]\n"},
	{sql: `SELECT COUNT(*) AS n FROM u WHERE a NOT IN (1, 2)`, want: "[n]\n[1]\n"},
	// DML finds its rows through the same predicates: NOT IN (1, NULL)
	// matches none; (2,NULL), (NULL,'y') and (4,'z') match the OR.
	{sql: `DELETE FROM u WHERE a NOT IN (1, NULL)`, affected: 0},
	{sql: `UPDATE u SET b = b WHERE a > 1 OR b = 'y'`, affected: 3},
	{sql: `DELETE FROM u WHERE a > 1 OR b = 'y'`, affected: 3},
	{sql: `SELECT a, b FROM u`, want: "[a b]\n[1 x]\n"},
	// IN compares numbers as = does: f IN (1) is f = 1, a IN (1.0) is
	// a = 1.0, and no INT equals 1.5.
	{sql: `SELECT a, f = 1 AS fe, f IN (1) AS fi, a = 1.0 AS ae, a IN (1.0) AS ai FROM m ORDER BY a`,
		want: "[a fe fi ae ai]\n[<nil> <nil> <nil> <nil> <nil>]\n[1 true true true true]\n[2 false false false false]\n[3 false false false false]\n"},
	{sql: `SELECT COUNT(*) AS n FROM m WHERE a IN (1.5)`, want: "[n]\n[0]\n"},
	{sql: `SELECT a FROM m WHERE f IN (1, 3) ORDER BY a`, want: "[a]\n[1]\n[3]\n"},
	{sql: `SELECT a FROM m WHERE a NOT IN (1.0, 2.5) ORDER BY a`, want: "[a]\n[2]\n[3]\n"},
	{sql: `DELETE FROM m WHERE a IN (1.0, 2.5)`, affected: 1},
	{sql: `SELECT a, f FROM m ORDER BY a`, want: "[a f]\n[<nil> <nil>]\n[2 2.5]\n[3 3]\n"},
}
