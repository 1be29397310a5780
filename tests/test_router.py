"""Query routing policy (transparent offload + AOT rules)."""

import pytest

from repro.catalog import Catalog, Column, TableLocation, TableSchema
from repro.errors import RoutingError
from repro.federation.router import AccelerationMode, QueryRouter
from repro.sql import parse_statement
from repro.sql.stats import PlanCost
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
    return QueryRouter(catalog)


#: Cost advice for a query the accelerator runs cheaper, and for one it
#: does not (a small scan pays the round trip).
OFFLOAD = PlanCost(db2=1000.0, accelerator=60.0)
STAY = PlanCost(db2=10.0, accelerator=30.0)


def route(router, sql, mode="ENABLE", cost=None):
    return router.route_query(
        router.classify(parse_statement(sql)),
        AccelerationMode(mode),
        cost_advice=cost,
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
        decision = route(router, "SELECT x FROM accel2", mode="ALL", cost=STAY)
        assert decision.engine == "ACCELERATOR"

    def test_non_accelerated_table_stays_on_db2_even_under_all(self, router):
        decision = route(router, "SELECT x FROM plain", mode="ALL")
        assert decision.engine == "DB2"

    def test_mixed_accelerated_and_plain_stays_on_db2(self, router):
        decision = route(
            router, "SELECT * FROM accel2 a JOIN plain p ON a.x = p.x"
        )
        assert decision.engine == "DB2"


class TestEnableRouting:
    """Under ENABLE a point lookup stays on DB2; every other query
    follows the cost advice, and without advice it stays on DB2."""

    def test_aggregate_offloads(self, router):
        decision = route(router, "SELECT SUM(y) FROM accel2", cost=OFFLOAD)
        assert decision.engine == "ACCELERATOR"

    def test_group_by_offloads(self, router):
        decision = route(
            router, "SELECT x, COUNT(*) FROM accel2 GROUP BY x", cost=OFFLOAD
        )
        assert decision.engine == "ACCELERATOR"

    def test_join_offloads(self, router):
        decision = route(
            router,
            "SELECT * FROM accel a JOIN accel2 b ON a.id = b.x",
            cost=OFFLOAD,
        )
        assert decision.engine == "ACCELERATOR"

    def test_point_lookup_stays_on_db2(self, router):
        decision = route(router, "SELECT v FROM accel WHERE id = 5", cost=OFFLOAD)
        assert decision.engine == "DB2"
        assert "point lookup" in decision.reason

    def test_point_lookup_needs_full_key(self, router):
        # V = 5 is not a key predicate; the cost advice decides.
        decision = route(router, "SELECT id FROM accel WHERE v = 5", cost=OFFLOAD)
        assert decision.engine == "ACCELERATOR"

    def test_small_plain_scan_stays_on_db2(self, router):
        decision = route(router, "SELECT x FROM accel2 WHERE y > 1", cost=STAY)
        assert decision.engine == "DB2"
        assert decision.reason == STAY.describe()

    def test_large_plain_scan_offloads(self, router):
        decision = route(router, "SELECT x FROM accel2 WHERE y > 1", cost=OFFLOAD)
        assert decision.engine == "ACCELERATOR"
        assert decision.reason == OFFLOAD.describe()

    def test_set_operation_follows_cost(self, router):
        decision = route(
            router,
            "SELECT x FROM accel2 UNION SELECT id FROM accel",
            cost=STAY,
        )
        assert decision.engine == "DB2"

    def test_distinct_follows_cost(self, router):
        decision = route(router, "SELECT DISTINCT x FROM accel2", cost=STAY)
        assert decision.engine == "DB2"

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT SUM(y) FROM accel2",
            "SELECT * FROM accel a JOIN accel2 b ON a.id = b.x",
            "SELECT x FROM accel2 WHERE y > 1",
        ],
    )
    def test_no_estimate_stays_on_db2(self, router, sql):
        decision = route(router, sql)
        assert decision.engine == "DB2"
        assert decision.reason == "no cardinality estimate"


class TestDmlRouting:
    def test_aot_dml_routes_to_accelerator(self, router):
        assert router.route_dml("AOT").engine == "ACCELERATOR"

    def test_db2_table_dml_routes_to_db2(self, router):
        assert router.route_dml("PLAIN").engine == "DB2"
        assert router.route_dml("ACCEL").engine == "DB2"


class TestCostAdvice:
    """Optimizer cost advice decides ENABLE-mode offload."""

    def test_advice_prefers_accelerator(self, router):
        decision = router.route_query(
            router.classify(parse_statement("SELECT x FROM accel2 WHERE y > 1")),
            AccelerationMode("ENABLE"),
            cost_advice=PlanCost(db2=100.0, accelerator=10.0),
        )
        assert decision.engine == "ACCELERATOR"
        assert decision.reason == "cost accelerator=10 vs db2=100"

    def test_advice_prefers_db2(self, router):
        # A cheap aggregate stays on DB2.
        decision = router.route_query(
            router.classify(parse_statement("SELECT SUM(y) FROM accel2")),
            AccelerationMode("ENABLE"),
            cost_advice=PlanCost(db2=5.0, accelerator=50.0),
        )
        assert decision.engine == "DB2"

    def test_point_lookup_precedes_advice(self, router):
        decision = router.route_query(
            router.classify(parse_statement("SELECT v FROM accel WHERE id = 5")),
            AccelerationMode("ENABLE"),
            cost_advice=PlanCost(db2=100.0, accelerator=1.0),
        )
        assert decision.engine == "DB2"
        assert "point lookup" in decision.reason

    def test_mode_semantics_precede_advice(self, router):
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
