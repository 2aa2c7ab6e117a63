"""auction_stream: the auctioneer's online path, one client in a closed loop.

One round replays a fixed, seeded sequence of orders against a fresh escrow
ledger. Per order, the operation timed is the guarantee path: reserve escrow
for every candidate, admit, compute the guaranteed minimum and format it.
Off that path, the stream cancels the reservations of candidates that were
not admitted, settles the order ``LAG`` orders later, and prefetches the
escrow snapshot before the next order arrives. Because settlement lags, a
backlog of pending reservations stays on the ledger.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import model

ORDERS = 1000  # orders per round: one round is 1000 timed operations
LAG = 8  # orders between an order's guarantee and its settlement
SOLVERS = 520
SPOOFERS = 16
AUCTIONEER = "auctioneer-0"
SNAPSHOT_EVERY = 25  # round-one snapshots kept for the ledger check
ZERO = Fraction(0)


def candidate_counts(rng: random.Random, orders: int) -> list[int]:
    """Heavy-tailed counts (mostly 5-30, a few up to 500) at the quantile
    midpoints, in seeded order: every seed has the same multiset of order
    sizes, so the latency percentiles do not move with the seed."""
    counts = [min(500, max(5, int(5.0 * ((i + 0.5) / orders) ** (-1.0 / 1.2)))) for i in range(orders)]
    rng.shuffle(counts)
    return counts



def make_orders(seed: int) -> tuple[list[dict], dict[str, Fraction]]:
    """Orders as plain tuples ``(sid, bid, gas_reserved, gas_used, succeeds)``
    plus the escrow deposit of every solver."""
    rng = random.Random(seed)
    deposits = {}
    for i in range(SOLVERS):
        # one solver in ten is thinly funded, so some bids are rejected
        low, high = (3, 12) if i % 10 == 0 else (60, 200)
        deposits[f"s{i:04d}"] = model.random_amount(rng, low, high)
    for i in range(SPOOFERS):
        low, high = (50, 150) if i % 2 else (500, 2000)
        deposits[f"x{i:02d}"] = model.random_amount(rng, low, high)
    orders = []
    for count in candidate_counts(rng, ORDERS):
        gamma = rng.randint(1_000_000, 3_000_000)
        user_gas = rng.randint(50_000, 300_000)
        price = Fraction(rng.choice((1, 2, 3)), 100_000)
        duplicates = count // 7  # solvers that send a second op
        solvers = rng.sample(range(SOLVERS), count - duplicates)
        solvers += rng.sample(solvers, duplicates)
        ops = []
        for s in solvers:
            gas = int(gamma * rng.uniform(0.04, 0.24))
            succeeds = rng.random() < 0.5
            used = int(gas * rng.uniform(0.5 if succeeds else 0.2, 1.0))
            ops.append((f"s{s:04d}", model.random_amount(rng, 50, 150), gas, used, succeeds))
        if rng.random() < 0.05:  # a spoof bid that reserves almost the whole budget
            top = max(op[1] for op in ops)
            gas = gamma - min(op[2] for op in ops) + 1
            ops.insert(
                rng.randrange(len(ops) + 1),
                (f"x{rng.randrange(SPOOFERS):02d}", top + model.random_amount(rng, 1, 10), gas, gas, False),
            )
        values = {op[0]: op[1] * Fraction(rng.randint(100, 130), 100) for op in ops}
        orders.append(
            {"gamma": gamma, "user_gas": user_gas, "price": price, "ops": ops, "values": values}
        )
    return orders, deposits


class Workload:
    def __init__(self, seed: int, ofasim) -> None:
        self.auction = ofasim.auction
        self.settlement = ofasim.settlement
        self.escrow = ofasim.escrow
        self.money = ofasim.money
        Behavior = ofasim.auction.Behavior
        self.orders, self.deposits = make_orders(seed)
        for order in self.orders:
            order["schedule"] = ofasim.auction.GasSchedule(
                tx_gas_limit=order["gamma"] + order["user_gas"],
                user_gas_consumed=order["user_gas"],
                gas_price=order["price"],
            )
            order["candidates"] = [
                ofasim.auction.SolverOperation(
                    solver_id=sid,
                    bid=bid,
                    gas_reserved=gas,
                    gas_used=used,
                    behavior=Behavior.SUCCEED if ok else Behavior.REVERT,
                )
                for sid, bid, gas, used, ok in order["ops"]
            ]
        ledger = ofasim.escrow.EscrowLedger()
        for sid, amount in self.deposits.items():
            ledger.deposit(sid, AUCTIONEER, amount)
        self.ledger_document = ledger.to_json()
        self.rounds: list[list[tuple]] = []
        self.round_one: dict = {}

    def run_round(self, tick) -> tuple[list[int], float]:
        auction, settlement, escrow, money = self.auction, self.settlement, self.escrow, self.money
        first = not self.rounds
        ledger = escrow.EscrowLedger.from_json(self.ledger_document)
        latencies = []
        digests = []
        in_flight = []  # (order index, tx, {solver_id: handle})
        snapshots = {}
        settled = []
        for index, order in enumerate(self.orders):
            tick()
            snapshot = ledger.prefetch_snapshot(AUCTIONEER)
            if first and index % SNAPSHOT_EVERY == 0:
                snapshots[index] = snapshot
            gamma, price = order["gamma"], order["price"]
            start = time.perf_counter_ns()
            reserved, handles, rejected = [], [], []
            try:
                for op in order["candidates"]:
                    try:
                        handle = ledger.reserve(op.solver_id, AUCTIONEER, op, gamma, price).handle
                    except escrow.InsufficientEscrow:
                        rejected.append(True)
                        continue
                    rejected.append(False)
                    reserved.append(op)
                    handles.append(handle)
                tx = auction.admit_operations(reserved, order["schedule"], order["values"])
                floor = settlement.guaranteed_minimum(tx)
                guarantee = money.format_amount(floor)
            except Exception as exc:  # a crash fails this order, not the run
                latencies.append(time.perf_counter_ns() - start)
                digests.append(("error", f"{type(exc).__name__}: {exc}"))
                continue
            latencies.append(time.perf_counter_ns() - start)

            admitted = {id(op) for op in tx.solver_ops}
            kept = {}
            for op, handle in zip(reserved, handles):
                if id(op) in admitted:
                    kept[op.solver_id] = handle
                else:
                    ledger.cancel_reservation(handle)
            in_flight.append((index, tx, kept))
            digests.append((tuple(rejected), tuple(op.solver_id for op in tx.solver_ops), guarantee))
            if len(in_flight) > LAG:
                settled.append(self._settle(ledger, *in_flight.pop(0)))
        while in_flight:
            settled.append(self._settle(ledger, *in_flight.pop(0)))
        balances = {sid: ledger.balance(sid, AUCTIONEER) for sid in self.deposits}
        if first:
            self.round_one = {"snapshots": snapshots, "settled": settled, "balances": balances}
        self.rounds.append(digests + [tuple(sorted(balances.items()))])
        return latencies, float(len(self.orders))

    def _settle(self, ledger, index, tx, handles) -> tuple:
        try:
            result = self.settlement.settle(tx)
            for sid, handle in handles.items():
                if sid in result.failure_costs:
                    # charge the failure cost plus the op's own gas; the winner's gas
                    # charge also covers the user's gas, so it is not taken from escrow
                    charge = result.failure_costs[sid] + result.gas_charges[sid]
                else:
                    charge = ZERO
                ledger.settle_reservation(handle, charge)
        except Exception as exc:  # a crash fails this order, not the run
            return index, exc
        return index, result

    # -- correctness ------------------------------------------------------

    def check(self) -> list[tuple[str, bool]]:
        """Per order and round, whether the order's outputs are right."""
        ok = self._check_round_one()
        reference = self.rounds[0]
        verdicts = []
        for digests in self.rounds:
            same = [a == b for a, b in zip(digests, reference)]
            balances_same = same[-1]
            round_ok = [o and s for o, s in zip(ok, same[:-1])]
            round_ok[-1] = round_ok[-1] and balances_same
            verdicts.extend(("order", v) for v in round_ok)
        return verdicts

    def _check_round_one(self) -> list[bool]:
        """Replay round one on a plain dict ledger and recompute every order."""
        digests = self.rounds[0]
        balance = dict(self.deposits)
        held = {sid: ZERO for sid in balance}
        ok = [True] * len(self.orders)
        results = dict(self.round_one["settled"])
        in_flight = []

        def settle_order(index, admitted, amounts, order):
            expected = model.settle(
                admitted, order["gamma"], order["price"], order["user_gas"], order["values"]
            )
            result = results.get(index)  # missing or an exception when the program crashed
            good = result is not None and not isinstance(result, Exception) and (
                result.winner == expected["winner"]
                and dict(result.failure_costs) == expected["failure_costs"]
                and dict(result.gas_charges) == expected["gas_charges"]
                and dict(result.solver_payoffs) == expected["solver_payoffs"]
                and result.beneficiary_payout == expected["beneficiary_payout"]
                and result.beneficiary_payout >= model.guaranteed_minimum(admitted, order["gamma"])
                and result.total_gas_used == expected["total_gas_used"]
            )
            for op in admitted:
                sid = op[0]
                charge = ZERO
                if sid in expected["failure_costs"]:
                    charge = expected["failure_costs"][sid] + expected["gas_charges"][sid]
                good = good and charge <= amounts[sid]
                held[sid] -= amounts[sid]
                balance[sid] -= charge
                good = good and balance[sid] - held[sid] >= 0
            ok[index] = ok[index] and good

        for index, order in enumerate(self.orders):
            snapshot = self.round_one["snapshots"].get(index)
            if snapshot is not None and dict(snapshot) != {
                sid: balance[sid] - held[sid] for sid in balance
            }:
                ok[index] = False
            gamma, price = order["gamma"], order["price"]
            rejected, reserved, amounts = [], [], {}
            for op in order["ops"]:
                need = model.required_escrow(op[1], op[2], gamma, price)
                if balance[op[0]] - held[op[0]] < need:
                    rejected.append(True)
                    continue
                rejected.append(False)
                held[op[0]] += need
                reserved.append((op, need))
            admitted = model.admit([op for op, _ in reserved], gamma)
            # release what was not admitted: the weaker op of a two-op solver,
            # and everything past the prefix that fits
            kept = {id(op) for op in admitted}
            for op, need in reserved:
                if id(op) in kept:
                    amounts[op[0]] = need
                else:
                    held[op[0]] -= need
            floor = model.guaranteed_minimum(admitted, gamma)
            digest = digests[index]
            if (
                len(digest) != 3  # the program raised on this order
                or digest[0] != tuple(rejected)
                or digest[1] != tuple(op[0] for op in admitted)
                or not model.amount_matches(digest[2], floor)
                or any(balance[op[0]] - held[op[0]] < 0 for op in order["ops"])
            ):
                ok[index] = False
            in_flight.append((index, admitted, amounts, order))
            if len(in_flight) > LAG:
                settle_order(*in_flight.pop(0))
        while in_flight:
            settle_order(*in_flight.pop(0))
        if self.round_one["balances"] != balance or any(held.values()):
            ok[-1] = False
        return ok
