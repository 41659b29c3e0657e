"""Batch netting, settlement, and trade-splitting tests.

Settlement examples are checked with a token-conservation oracle: per token,
the sum of trader flows plus the pool's reserve change must be exactly zero,
and retained fees must match the per-order attribution.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmamm.amm import InfeasibleTradeError, Reserves, apply_trade
from fmamm.batch import (
    Batch,
    Order,
    load_order_batches,
    net_orders,
    settle_batch,
    split_trade_experiment,
)

R = Reserves(20000.0, 10.0)


def order(amount, kind="noise", oid=None):
    return Order(id=oid or f"o{amount}", trader_kind=kind, amount=amount)


def assert_conservation(reserves, after, report):
    """Per-token zero sum across all fills and the pool."""
    trader_asset = math.fsum(f.amount for f in report.fills)
    trader_numeraire = math.fsum(-f.amount * f.price for f in report.fills)
    assert after.x - reserves.x == pytest.approx(-trader_asset, rel=1e-12, abs=1e-15)
    assert after.y - reserves.y == pytest.approx(-trader_numeraire, rel=1e-12, abs=1e-12)
    # fee attribution: buyer pays (price - pre_fee) extra per unit, seller
    # keeps tau of each unit in asset terms
    fee_n = math.fsum(
        f.amount * (f.price - report.pre_fee_price) for f in report.fills if f.amount > 0
    )
    fee_a = math.fsum(
        -f.amount * (1 - f.price / report.pre_fee_price) for f in report.fills if f.amount < 0
    )
    assert report.fee_numeraire == pytest.approx(fee_n, rel=1e-9, abs=1e-15)
    assert report.fee_asset == pytest.approx(fee_a, rel=1e-9, abs=1e-15)


class TestNetOrders:
    def test_full_coincidence(self):
        flow = net_orders([order(2.0), order(-2.0)])
        assert flow.net == 0.0
        assert flow.matched == 2.0

    def test_partial_match(self):
        flow = net_orders([order(3.0), order(-1.0)])
        assert flow.net == 2.0
        assert flow.matched == 1.0
        assert flow.buys == 3.0
        assert flow.sells == -1.0

    def test_empty(self):
        flow = net_orders([])
        assert flow == (0.0, 0.0, 0.0, -0.0)

    @pytest.mark.parametrize("amounts", [[1.0], [1.0, 2.0], [-1.0], []])
    def test_one_sided_batch_matches_positive_zero(self, amounts):
        matched = net_orders([order(a) for a in amounts]).matched
        assert matched == 0.0 and math.copysign(1.0, matched) == 1.0


class TestSettleBatch:
    def test_single_buy_no_fee(self):
        after, report = settle_batch(R, Batch(1, (order(1.0),)), 0.0)
        assert report.pre_fee_price == 2500.0
        assert report.fills[0].price == 2500.0
        assert after == Reserves(22500.0, 9.0)
        assert_conservation(R, after, report)

    def test_fully_netted_fills_at_spot(self):
        after, report = settle_batch(R, Batch(1, (order(1.0), order(-1.0))), 0.0)
        assert report.net_trade == 0.0
        assert report.matched_volume == 1.0
        assert all(f.price == 2000.0 for f in report.fills)
        assert after == R

    def test_mixed_batch_with_fee(self):
        after, report = settle_batch(R, Batch(1, (order(2.0), order(-1.0))), 0.1)
        assert report.net_trade == 1.0
        assert report.matched_volume == 1.0
        assert report.pre_fee_price == 2500.0
        buy, sell = report.fills
        assert buy.price == pytest.approx(2500.0 / 0.9, rel=1e-12)
        assert sell.price == pytest.approx(0.9 * 2500.0, rel=1e-12)
        assert sell.fee_paid == pytest.approx(0.1, rel=1e-12)
        assert sell.fee_token == "asset"
        assert buy.fee_token == "numeraire"
        assert_conservation(R, after, report)

    def test_uniform_pre_fee_price(self):
        orders = (order(0.5, oid="a"), order(1.5, oid="b"), order(-0.7, oid="c"))
        after, report = settle_batch(R, Batch(3, orders), 0.003)
        for f in report.fills:
            if f.amount > 0:
                assert f.price == pytest.approx(report.pre_fee_price / 0.997, rel=1e-15)
            else:
                assert f.price == pytest.approx(report.pre_fee_price * 0.997, rel=1e-15)
        assert_conservation(R, after, report)

    def test_net_sell_prices_at_fee_shrunk_trade(self):
        after, report = settle_batch(R, Batch(1, (order(-2.0),)), 0.25)
        assert report.pre_fee_price == pytest.approx(20000.0 / (10.0 + 2 * 1.5), rel=1e-12)
        assert_conservation(R, after, report)

    def test_net_trade_matches_apply_trade(self):
        for tau in (0.0, 0.003, 0.1):
            for net in (1.7, -2.3):
                after, _ = settle_batch(R, Batch(1, (order(net),)), tau)
                assert after == apply_trade(R, net, tau)

    @settings(max_examples=300, deadline=None)
    @given(
        amounts=st.lists(st.floats(-3.0, 3.0).filter(bool), min_size=1, max_size=8),
        tau=st.floats(0.0, 0.2),
        data=st.data(),
    )
    def test_order_permutation_invariance(self, amounts, tau, data):
        # exact sums make settlement independent of the order of the orders
        orders = [order(a, oid=f"o{i}") for i, a in enumerate(amounts)]
        perm = data.draw(st.permutations(orders))
        try:
            base_after, base_report = settle_batch(R, Batch(1, tuple(orders)), tau)
        except InfeasibleTradeError:  # net buy at or past the pole x/2
            with pytest.raises(InfeasibleTradeError):
                settle_batch(R, Batch(1, tuple(perm)), tau)
            return
        after, report = settle_batch(R, Batch(1, tuple(perm)), tau)
        assert after == base_after
        assert report.pre_fee_price == base_report.pre_fee_price
        assert report.fee_numeraire == base_report.fee_numeraire
        assert report.fee_asset == base_report.fee_asset

    @settings(max_examples=300, deadline=None)
    @given(
        y=st.floats(1e-3, 1e9),
        x=st.floats(1e-3, 1e6),
        # as shares of the asset reserve: a net buy past 1/2 hits the pole
        shares=st.lists(st.floats(-1.0, 1.0).filter(lambda s: abs(s) > 1e-12),
                        min_size=1, max_size=8),
        tau=st.floats(0.0, 0.2),
    )
    def test_fee_value_retained(self, y, x, shares, tau):
        # at the batch's pre-fee price the pool gains exactly the fees it keeps
        reserves = Reserves(y, x)
        orders = tuple(order(s * x, oid=f"o{i}") for i, s in enumerate(shares))
        try:
            after, report = settle_batch(reserves, Batch(1, orders), tau)
        except InfeasibleTradeError:
            return
        base = report.pre_fee_price
        gain = (after.y + base * after.x) - (y + base * x)
        fees = report.fee_numeraire + base * report.fee_asset
        assert abs(gain - fees) <= 1e-12 * (y + base * x)

    @given(
        y=st.floats(1e-3, 1e9),
        x=st.floats(1e-3, 1e6),
        shares=st.lists(st.floats(-1.0, 1.0).filter(lambda s: abs(s) > 1e-12),
                        min_size=1, max_size=8),
        tau=st.floats(0.0, 0.2),
    )
    def test_totals_are_the_sums_of_the_fills(self, y, x, shares, tau):
        # the report's totals and the reserve change are exact sums over its own fills
        reserves = Reserves(y, x)
        orders = tuple(order(s * x, oid=f"o{i}") for i, s in enumerate(shares))
        try:
            after, report = settle_batch(reserves, Batch(1, orders), tau)
        except InfeasibleTradeError:
            return
        fills = report.fills
        assert [(f.order_id, f.amount) for f in fills] == [(o.id, o.amount) for o in orders]
        assert after.y == y + math.fsum(f.amount * f.price for f in fills)
        assert after.x == x - report.net_trade
        assert report.fee_numeraire == math.fsum(f.fee_paid for f in fills
                                                 if f.fee_token == "numeraire")
        assert report.fee_asset == math.fsum(f.fee_paid for f in fills if f.fee_token == "asset")

    def test_infeasible_batch_rejected_whole(self):
        with pytest.raises(InfeasibleTradeError):
            settle_batch(R, Batch(1, (order(4.0), order(1.5))), 0.0)

    @pytest.mark.parametrize("amounts", [[1e308, 1e308], [-1e308, -1e308]])
    def test_overflowing_sums_name_the_block(self, amounts):
        batch = Batch(4, tuple(order(a, kind, f"o{i}") for i, (a, kind) in
                               enumerate(zip(amounts, ("noise", "arbitrageur")))))
        with pytest.raises(ValueError, match="block 4: batch sums overflow: intermediate overflow"):
            settle_batch(R, batch, 0.003)

    def test_same_net_same_price_any_composition(self):
        # the uniform pre-fee price depends on the batch only via its net
        lumped = settle_batch(R, Batch(1, (order(1.2),)), 0.01)[1]
        split = settle_batch(
            R, Batch(1, (order(2.0), order(-0.5), order(0.7), order(-1.0))), 0.01
        )[1]
        assert split.net_trade == pytest.approx(lumped.net_trade, abs=1e-15)
        assert split.pre_fee_price == pytest.approx(lumped.pre_fee_price, rel=1e-15)
        # and with no fee the reserve transition matches too
        after_a = settle_batch(R, Batch(1, (order(1.2),)), 0.0)[0]
        after_b = settle_batch(
            R, Batch(1, (order(2.0), order(-0.5), order(0.7), order(-1.0))), 0.0
        )[0]
        assert after_b.y == pytest.approx(after_a.y, rel=1e-12)
        assert after_b.x == pytest.approx(after_a.x, rel=1e-15)

    def test_report_serializes(self):
        _, report = settle_batch(R, Batch(2, (order(1.0),)), 0.003)
        data = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert data["block"] == 2
        assert data["fills"][0]["fee_token"] == "numeraire"
        assert data["fee_accrued"]["asset"] == 0.0


class TestSplitTradeExperiment:
    def test_single_shot(self):
        final = split_trade_experiment(R, 2.0, 1)
        assert final.y == pytest.approx(20000.0 * 8.0 / 6.0, rel=1e-12)
        assert final.x == 8.0

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            split_trade_experiment(R, 2.0, n)

    def test_matches_sequential_apply_trade(self):
        # k slices of 2/7 each end where k sequential trades of 2/7 end
        r = R
        for k in range(1, 8):
            r = apply_trade(r, 2.0 / 7, 0.0)
            final = split_trade_experiment(R, 2.0 * k / 7, k)
            assert final.y == pytest.approx(r.y, rel=1e-12)
            assert final.x == pytest.approx(r.x, rel=1e-12)

    def test_limit_is_constant_product(self):
        assert split_trade_experiment(R, 2.0, 100_000).y == pytest.approx(25000.0, rel=1e-3)

    def test_monotone_in_n(self):
        finals = [split_trade_experiment(R, 2.0, n).y for n in (1, 2, 5, 10, 100)]
        assert all(a > b for a, b in zip(finals, finals[1:]))

    def test_zero_trade(self):
        assert split_trade_experiment(R, 0.0, 5) == R

    def test_infeasible_mid_sequence_names_step(self):
        # 9.5 total is fine per slice at first but the pole hits later: the
        # tenth slice of 0.95 leaves 10 - 11*0.95 < 0
        with pytest.raises(InfeasibleTradeError, match=r"step 10 of 10"):
            split_trade_experiment(R, 9.5, 10)

    def test_sell_side_always_feasible(self):
        final = split_trade_experiment(R, -50.0, 100)
        assert final.x == pytest.approx(60.0, rel=1e-12)
        assert final.y > 0

    def test_overflowing_denominator_rejected(self):
        # x - (n+1)*d overflows to inf: the final numeraire reserve read 0.0,
        # where the true one is 0.5
        with pytest.raises(ValueError, match=r"^split trade denominator overflows at y=1.0, "
                                             r"x=1.0, trade -1e\+308$"):
            split_trade_experiment(Reserves(1.0, 1.0), -1e308, 1)


class TestLoadOrderBatches:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "orders.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"block": 1, "trader_kind": "noise", "amount": 1.0}),
                    json.dumps({"block": 1, "trader_kind": "noise", "amount": -0.5}),
                    json.dumps({"block": 3, "trader_kind": "arbitrageur", "amount": 0.25, "id": "arb"}),
                ]
            )
        )
        batches = load_order_batches(path)
        assert [b.block_index for b in batches] == [1, 3]
        assert [o.id for o in batches[0].orders] == ["1:0", "1:1"]
        assert batches[1].orders[0].id == "arb"

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "orders.jsonl"
        path.write_text('{"block": 1, "trader_kind": "noise", "amount": 1.0}\n\n  \n'
                        '{"block": 2, "trader_kind": "noise", "amount": 0.5}\nnot json\n')
        with pytest.raises(ValueError, match=":5: bad order line"):
            load_order_batches(path)
        path.write_text(path.read_text().replace("not json\n", "\n"))
        assert [[o.amount for o in b.orders] for b in load_order_batches(path)] == [[1.0], [0.5]]

    def test_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "orders.jsonl"
        path.write_text('{"block": 1, "trader_kind": "noise", "amount": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_order_batches(path)

    def test_zero_amount_reports_lineno(self, tmp_path):
        path = tmp_path / "orders.jsonl"
        path.write_text('{"block": 1, "trader_kind": "noise", "amount": 0.0}\n')
        with pytest.raises(ValueError, match=":1:"):
            load_order_batches(path)

    def test_decreasing_block_rejected(self, tmp_path):
        path = tmp_path / "orders.jsonl"
        path.write_text(
            '{"block": 2, "trader_kind": "noise", "amount": 1.0}\n'
            '{"block": 1, "trader_kind": "noise", "amount": 1.0}\n'
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            load_order_batches(path)

    @pytest.mark.parametrize("order_id", ["null", "5", "true", '["a"]'])
    def test_id_that_is_not_a_string_names_its_line(self, tmp_path, order_id):
        # with str(), two null ids would settle as one id "None"
        path = tmp_path / "o.jsonl"
        line = '{"block": 1, "trader_kind": "noise", "amount": 1.0, "id": %s}\n'
        path.write_text(line % '"a"' + 2 * (line % order_id))
        with pytest.raises(ValueError) as exc:
            load_order_batches(path)
        assert str(exc.value).startswith(f"{path}:2: bad order line: id must be a string, got ")

    @pytest.mark.parametrize("lines, where, message", [
        # line 2 is bad before line 4 lowers the block
        (['{"block": 3, "trader_kind": "noise", "amount": 1.0}',
          '{"block": 3, "trader_kind": "bogus", "amount": 1.0}',
          '{"block": 3, "trader_kind": "noise", "amount": 1.0}',
          '{"block": 2, "trader_kind": "noise", "amount": 1.0}'], 2, "bad order line: trader_kind"),
        (['{"block": 0, "trader_kind": "noise", "amount": 1.0}'], 1,
         "bad order line: block must be >= 1, got 0"),
        (['{"block": 1e400, "trader_kind": "noise", "amount": 1.0}'], 1, "bad order line"),
        (['{"block": 1, "trader_kind": "noise", "amount": 1%s}' % ("0" * 400)], 1,
         "bad order line"),
        (['{"block": 2, "trader_kind": "noise", "amount": 1.0}',
          '{"block": 1, "trader_kind": "bogus", "amount": 1.0}'], 2,
         "block 1 after block 2; blocks must be non-decreasing"),
    ], ids=["bad kind before lower block", "block 0", "infinite block", "huge amount",
            "lower block with bad kind"])
    def test_first_bad_line_is_named(self, tmp_path, lines, where, message):
        path = tmp_path / "o.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_order_batches(path)
        assert str(exc.value).startswith(f"{path}:{where}: {message}"), exc.value


class TestOrderValidation:
    def test_zero_amount(self):
        with pytest.raises(ValueError):
            Order("a", "noise", 0.0)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Order("a", "whale", 1.0)

    def test_bad_block(self):
        with pytest.raises(ValueError):
            Batch(0, (order(1.0),))
