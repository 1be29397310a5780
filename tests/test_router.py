"""Query routing policy (transparent offload + AOT rules)."""

import pytest

from repro.catalog import Catalog, Column, TableLocation, TableSchema
from repro.errors import RoutingError
from repro.federation.router import AccelerationMode, QueryRouter
from repro.sql import parse_statement
from repro.sql.types import DOUBLE, INTEGER, VarcharType


@pytest.fixture
def router():
    catalog = Catalog()
    pk_schema = TableSchema(
        [
            Column("ID", INTEGER, nullable=False, primary_key=True),
            Column("V", DOUBLE),
        ]
    )
    plain = TableSchema([Column("X", INTEGER), Column("Y", DOUBLE)])
    catalog.create_table("ACCEL", pk_schema, location=TableLocation.ACCELERATED)
    catalog.create_table(
        "ACCEL2", plain, location=TableLocation.ACCELERATED
    )
    catalog.create_table(
        "AOT", plain, location=TableLocation.ACCELERATOR_ONLY
    )
    catalog.create_table("PLAIN", plain, location=TableLocation.DB2_ONLY)
    return QueryRouter(catalog, offload_row_threshold=1000)


def route(router, sql, mode="ENABLE", rows=None):
    return router.route_query(
        router.classify(parse_statement(sql)),
        AccelerationMode(mode),
        estimated_rows=rows,
    )


class TestAotRules:
    def test_aot_query_goes_to_accelerator(self, router):
        decision = route(router, "SELECT * FROM aot")
        assert decision.engine == "ACCELERATOR"

    def test_aot_plus_accelerated_ok(self, router):
        decision = route(
            router, "SELECT * FROM aot a JOIN accel2 b ON a.x = b.x"
        )
        assert decision.engine == "ACCELERATOR"

    def test_aot_plus_plain_db2_is_error(self, router):
        with pytest.raises(RoutingError):
            route(router, "SELECT * FROM aot a JOIN plain p ON a.x = p.x")

    def test_aot_with_acceleration_none_is_error(self, router):
        with pytest.raises(RoutingError):
            route(router, "SELECT * FROM aot", mode="NONE")

    def test_aot_in_subquery_forces_accelerator(self, router):
        decision = route(
            router,
            "SELECT x FROM accel2 WHERE x IN (SELECT x FROM aot)",
        )
        assert decision.engine == "ACCELERATOR"


class TestAccelerationModes:
    def test_none_keeps_everything_on_db2(self, router):
        decision = route(
            router, "SELECT SUM(y) FROM accel2 GROUP BY x", mode="NONE"
        )
        assert decision.engine == "DB2"

    def test_all_offloads_small_scans(self, router):
        decision = route(router, "SELECT x FROM accel2", mode="ALL", rows=1)
        assert decision.engine == "ACCELERATOR"

    def test_non_accelerated_table_stays_on_db2_even_under_all(self, router):
        decision = route(router, "SELECT x FROM plain", mode="ALL")
        assert decision.engine == "DB2"

    def test_mixed_accelerated_and_plain_stays_on_db2(self, router):
        decision = route(
            router, "SELECT * FROM accel2 a JOIN plain p ON a.x = p.x"
        )
        assert decision.engine == "DB2"


class TestEnableHeuristics:
    def test_aggregate_offloads(self, router):
        decision = route(router, "SELECT SUM(y) FROM accel2", rows=10)
        assert decision.engine == "ACCELERATOR"

    def test_group_by_offloads(self, router):
        decision = route(
            router, "SELECT x, COUNT(*) FROM accel2 GROUP BY x", rows=10
        )
        assert decision.engine == "ACCELERATOR"

    def test_join_offloads(self, router):
        decision = route(
            router,
            "SELECT * FROM accel a JOIN accel2 b ON a.id = b.x",
            rows=10,
        )
        assert decision.engine == "ACCELERATOR"

    def test_point_lookup_stays_on_db2(self, router):
        decision = route(router, "SELECT v FROM accel WHERE id = 5", rows=10**6)
        assert decision.engine == "DB2"
        assert "point lookup" in decision.reason

    def test_point_lookup_needs_full_key(self, router):
        # V = 5 is not a key predicate; large table → offload.
        decision = route(
            router, "SELECT id FROM accel WHERE v = 5", rows=10**6
        )
        assert decision.engine == "ACCELERATOR"

    def test_small_plain_scan_stays_on_db2(self, router):
        decision = route(router, "SELECT x FROM accel2 WHERE y > 1", rows=10)
        assert decision.engine == "DB2"

    def test_large_plain_scan_offloads(self, router):
        decision = route(
            router, "SELECT x FROM accel2 WHERE y > 1", rows=10**6
        )
        assert decision.engine == "ACCELERATOR"

    def test_set_operation_is_analytical(self, router):
        decision = route(
            router,
            "SELECT x FROM accel2 UNION SELECT id FROM accel",
            rows=10,
        )
        assert decision.engine == "ACCELERATOR"

    def test_distinct_is_analytical(self, router):
        decision = route(router, "SELECT DISTINCT x FROM accel2", rows=10)
        assert decision.engine == "ACCELERATOR"


class TestDmlRouting:
    def test_aot_dml_routes_to_accelerator(self, router):
        assert router.route_dml("AOT").engine == "ACCELERATOR"

    def test_db2_table_dml_routes_to_db2(self, router):
        assert router.route_dml("PLAIN").engine == "DB2"
        assert router.route_dml("ACCEL").engine == "DB2"


class TestCostAdvice:
    """Optimizer cost advice replaces the ENABLE row-threshold heuristic."""

    def test_advice_prefers_accelerator(self, router):
        from repro.sql.stats import PlanCost

        decision = router.route_query(
            router.classify(parse_statement("SELECT x FROM accel2 WHERE y > 1")),
            AccelerationMode("ENABLE"),
            cost_advice=PlanCost(db2=100.0, accelerator=10.0),
        )
        assert decision.engine == "ACCELERATOR"
        assert decision.reason == "cost accelerator=10 vs db2=100"

    def test_advice_prefers_db2(self, router):
        from repro.sql.stats import PlanCost

        # The shape heuristic alone would offload this aggregate; the
        # cost advice keeps a cheap one on DB2.
        decision = router.route_query(
            router.classify(parse_statement("SELECT SUM(y) FROM accel2")),
            AccelerationMode("ENABLE"),
            cost_advice=PlanCost(db2=5.0, accelerator=50.0),
        )
        assert decision.engine == "DB2"

    def test_point_lookup_precedes_advice(self, router):
        from repro.sql.stats import PlanCost

        decision = router.route_query(
            router.classify(parse_statement("SELECT v FROM accel WHERE id = 5")),
            AccelerationMode("ENABLE"),
            cost_advice=PlanCost(db2=100.0, accelerator=1.0),
        )
        assert decision.engine == "DB2"
        assert "point lookup" in decision.reason

    def test_mode_semantics_precede_advice(self, router):
        from repro.sql.stats import PlanCost

        decision = router.route_query(
            router.classify(parse_statement("SELECT x FROM accel2")),
            AccelerationMode("NONE"),
            cost_advice=PlanCost(db2=100.0, accelerator=1.0),
        )
        assert decision.engine == "DB2"


class TestRoutingGuards:
    def test_point_lookup_on_unknown_name_is_clean_routing_error(self, router):
        # A from-item that resolves to nothing must surface as a
        # RoutingError, not leak the internal catalog exception.
        stmt = parse_statement("SELECT v FROM ghost WHERE id = 5")
        with pytest.raises(RoutingError, match="not a routable table"):
            router._is_point_lookup(stmt)
