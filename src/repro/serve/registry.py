"""Datasets and tenants: the service's persistent state.

A :class:`DatasetRegistry` maps dataset names to long-lived
:class:`~repro.core.engine.AggregationEngine` instances.  Engines are
built once and shared by every request that names the dataset, so the
compile/plan/prepared caches and columnar snapshots amortize across the
whole request stream — the serving payoff of the prepared-plan work.
Engine construction defaults lean resilient (``degrade=True``,
``allow_sampling=True``): a tenant's guardrail breach on exact
exponential work walks the degradation chain to sampling (its DKW
epsilon recorded) instead of failing the request.

A :class:`TenantPolicy` attaches a standing
:class:`~repro.core.guard.Budget` (and optional sampling default) to a
tenant name; the service combines it with the per-request deadline via
:func:`repro.core.guard.combine` so one tenant's expensive query cannot
starve another's — the per-tenant isolation contract of
``docs/serving.md``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping

from repro.core.engine import AggregationEngine
from repro.core.guard import Budget
from repro.exceptions import EvaluationError, UnknownDatasetError
from repro.schema.mapping import PMapping, SchemaPMapping
from repro.storage.table import Table

#: Engine construction defaults for served datasets; ``add``/``load``
#: callers can override any of them per dataset.
SERVING_ENGINE_DEFAULTS: dict = {
    "degrade": True,
    "allow_sampling": True,
}


class TenantPolicy:
    """One tenant's standing execution policy.

    Parameters
    ----------
    name:
        The tenant identifier requests carry in their ``tenant`` field.
    budget:
        The tenant's standing :class:`Budget` (resource caps and/or a
        default deadline); combined with — never loosened by — the
        per-request ``timeout_ms``.
    samples:
        Tenant default for the sampling estimator (a request's explicit
        ``samples`` wins).
    """

    __slots__ = ("name", "budget", "samples")

    def __init__(
        self,
        name: str,
        *,
        budget: Budget | None = None,
        samples: int | None = None,
    ) -> None:
        self.name = name
        self.budget = budget
        self.samples = samples

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.budget is not None:
            out["budget"] = self.budget.to_dict()
        if self.samples is not None:
            out["samples"] = self.samples
        return out

    def __repr__(self) -> str:
        return f"TenantPolicy({self.to_dict()!r})"


class DatasetRegistry:
    """Named datasets to persistent engines (plus tenant policies).

    Thread-safe: the service's worker threads resolve engines while the
    event loop registers/drops datasets.  Closing the registry closes
    every engine and reports per-dataset query-log sizes, so a drain can
    account for the work it saw.
    """

    def __init__(self, *, engine_defaults: Mapping[str, object] | None = None) -> None:
        self._engines: dict[str, AggregationEngine] = {}
        self._tenants: dict[str, TenantPolicy] = {}
        self._lock = threading.Lock()
        self.engine_defaults = dict(SERVING_ENGINE_DEFAULTS)
        if engine_defaults:
            self.engine_defaults.update(engine_defaults)

    # -- datasets ----------------------------------------------------------

    def add(
        self,
        name: str,
        tables: Table | Iterable[Table] | Mapping[str, Table],
        mappings: SchemaPMapping | PMapping | Iterable[PMapping],
        **engine_kwargs: object,
    ) -> AggregationEngine:
        """Build and register an engine for ``name`` (defaults applied)."""
        kwargs = dict(self.engine_defaults)
        kwargs.update(engine_kwargs)
        engine = AggregationEngine(tables, mappings, **kwargs)
        return self.add_engine(name, engine)

    def add_engine(self, name: str, engine: AggregationEngine) -> AggregationEngine:
        """Register an already-built engine under ``name``."""
        if not name:
            raise EvaluationError("dataset name must be non-empty")
        with self._lock:
            if name in self._engines:
                raise EvaluationError(f"dataset {name!r} is already registered")
            self._engines[name] = engine
        return engine

    def load_csv(
        self,
        name: str,
        data_path: str,
        mapping_path: str,
        **engine_kwargs: object,
    ) -> AggregationEngine:
        """Register a dataset from a CSV file and a JSON p-mapping."""
        from repro.schema.serialize import load_pmapping
        from repro.storage.csv_io import load_table_csv

        pmapping = load_pmapping(mapping_path)
        table = load_table_csv(pmapping.source, data_path)
        return self.add(name, [table], pmapping, **engine_kwargs)

    def add_synthetic(
        self,
        name: str,
        *,
        tuples: int = 500,
        attributes: int = 8,
        mappings: int = 5,
        seed: int = 0,
        relation: str = "T",
        **engine_kwargs: object,
    ) -> AggregationEngine:
        """Register a synthetic dataset (demos, benches, smoke checks).

        The mediated relation is named ``relation`` so queries read
        ``SELECT COUNT(*) FROM T``.
        """
        from repro.data import synthetic

        target = synthetic.mediated_relation(relation)
        source = synthetic.source_relation(attributes)
        table = synthetic.generate_source_table(
            tuples, attributes, seed=seed, relation=source
        )
        pmapping = synthetic.generate_pmapping(
            source, mappings, seed=seed, target=target
        )
        return self.add(name, [table], pmapping, **engine_kwargs)

    def engine(self, name: str) -> AggregationEngine:
        """The engine serving ``name``; typed 404 when unknown."""
        with self._lock:
            engine = self._engines.get(name)
            if engine is None:
                raise UnknownDatasetError(
                    f"unknown dataset {name!r}",
                    dataset=name,
                    known=tuple(sorted(self._engines)),
                )
            return engine

    def names(self) -> list[str]:
        """The registered dataset names, sorted."""
        with self._lock:
            return sorted(self._engines)

    def drop(self, name: str) -> None:
        """Unregister and close one dataset's engine."""
        with self._lock:
            engine = self._engines.pop(name, None)
        if engine is not None:
            engine.close()

    # -- tenants -----------------------------------------------------------

    def set_tenant(self, policy: TenantPolicy) -> TenantPolicy:
        """Install (or replace) one tenant's policy."""
        with self._lock:
            self._tenants[policy.name] = policy
        return policy

    def tenant(self, name: str) -> TenantPolicy:
        """The policy for ``name`` (an unrestricted one when unset)."""
        with self._lock:
            policy = self._tenants.get(name)
        return policy if policy is not None else TenantPolicy(name)

    def tenants(self) -> list[TenantPolicy]:
        """Every explicitly-installed tenant policy."""
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> dict:
        """Close every engine; returns a per-dataset flush report.

        Closing an engine releases its backend and caches; the report
        carries each dataset's buffered query-log record count at close,
        so the drain log can state what was flushed.
        """
        with self._lock:
            engines = dict(self._engines)
            self._engines.clear()
        report: dict = {}
        for name, engine in engines.items():
            records = len(engine.context.query_log)
            engine.close()
            report[name] = {"query_log_records": records}
        return report

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._engines

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def __enter__(self) -> "DatasetRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
