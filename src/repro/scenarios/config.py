"""Declarative, JSON-serializable scenario configurations.

A :class:`ScenarioConfig` captures *everything* needed to replay an attack
scenario — the game scale (stream length, universe, epsilon), the attack
budget, the knowledge model, the sampler grid, the adversary, the benign
filler distribution and the set system — as plain data.  Nothing in it is a
live object: samplers, adversaries and set systems are described by small
spec mappings (``{"family": ...}`` / ``{"kind": ...}``) that
:mod:`repro.scenarios.builders` turns into picklable factories at execution
time.  That makes every scenario serialisable to JSON, diffable, and safe to
ship across the :class:`~repro.adversary.batch.BatchGameRunner` process pool.

The **attack budget** is the scenario layer's universal scale knob: a value
``b`` in ``[0, 1]`` meaning "the adversary attacks for the first
``round(b * n)`` rounds and then submits benign filler".  Because the attack
prefix of a low-budget run is identical to that of a high-budget run (the
adversary does not know the budget, and per-trial substreams are derived
from budget-independent labels), raising the budget can only extend an
attack, never alter its beginning — which is what makes per-scenario
monotonicity checks (*larger budget ⇒ no smaller observed error*)
structurally meaningful rather than merely statistical.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, replace as dataclass_replace
from collections.abc import Mapping
from typing import Any

from ..adversary.campaign import CAMPAIGN_MODES, phase_start_rounds
from ..adversary.game import validate_knowledge
from ..distributed.faults import compile_fault_spec
from ..exceptions import ConfigurationError

#: Defense kinds accepted by the ``defense`` block.  ``oversample`` is
#: Theorem 1.2's k -> factor*k capacity scaling (a spec rewrite, no wrapper);
#: the rest are the copy-replication wrappers from :mod:`repro.defenses`.
DEFENSE_KINDS = ("oversample", "sketch_switching", "dp_aggregate", "difference_estimator")

#: The defense kinds realised by a :class:`~repro.defenses.wrappers.\
#: ReplicatedDefenseSampler` subclass (they all take ``copies`` and
#: ``matched_space``).
REPLICATED_DEFENSE_KINDS = ("sketch_switching", "dp_aggregate", "difference_estimator")

#: Per-kind allowed fields (beyond ``kind``) and their validation.
_DEFENSE_FIELDS = {
    "oversample": {"factor"},
    "sketch_switching": {"copies", "matched_space", "growth"},
    "dp_aggregate": {"copies", "matched_space", "dp_epsilon"},
    "difference_estimator": {"copies", "matched_space", "rotation_fraction"},
}


def _validate_defense(value: Any) -> dict[str, Any]:
    """Normalise and validate a scenario's ``defense`` block.

    Returns a deep copy with defaults resolved.  Family compatibility (the
    difference estimator needs a sliding-window sampler; oversampling needs a
    capacity or probability to scale) is checked against each sampler spec in
    :class:`~repro.scenarios.builders.SamplerFromSpec`, not here — the
    defense block itself is sampler-agnostic.
    """
    defense = _as_spec(value, "defense", "kind")
    kind = defense["kind"]
    if kind not in DEFENSE_KINDS:
        raise ConfigurationError(
            f"unknown defense kind {kind!r}; expected one of {DEFENSE_KINDS}"
        )
    unknown = set(defense) - {"kind"} - _DEFENSE_FIELDS[kind]
    if unknown:
        raise ConfigurationError(
            f"unknown fields in {kind} defense spec: {', '.join(sorted(unknown))}"
        )
    if kind == "oversample":
        factor = float(defense.setdefault("factor", 4))
        if factor < 1.0:
            raise ConfigurationError(
                f"oversample factor must be >= 1, got {factor}"
            )
        defense["factor"] = factor
        return defense
    copies = int(defense.setdefault("copies", 4))
    if copies < 2:
        raise ConfigurationError(
            f"a {kind} defense needs at least 2 copies, got {copies}"
        )
    defense["copies"] = copies
    defense["matched_space"] = bool(defense.setdefault("matched_space", False))
    if kind == "sketch_switching":
        growth = float(defense.setdefault("growth", 2.0))
        if growth <= 1.0:
            raise ConfigurationError(
                f"sketch-switching growth must exceed 1, got {growth}"
            )
        defense["growth"] = growth
    elif kind == "dp_aggregate":
        dp_epsilon = float(defense.setdefault("dp_epsilon", 1.0))
        if dp_epsilon <= 0.0:
            raise ConfigurationError(
                f"dp_epsilon must be positive, got {dp_epsilon}"
            )
        defense["dp_epsilon"] = dp_epsilon
    else:
        rotation_fraction = float(defense.setdefault("rotation_fraction", 1.0))
        if not 0.0 < rotation_fraction <= 4.0:
            raise ConfigurationError(
                "rotation_fraction (serving-copy rotation period as a "
                f"fraction of the window) must lie in (0, 4], got {rotation_fraction}"
            )
        defense["rotation_fraction"] = rotation_fraction
    return defense

#: The adversary field's default spec; a scenario that sets a ``campaign``
#: must leave ``adversary`` at this default (the campaign members define the
#: attack).
DEFAULT_ADVERSARY_SPEC = {"family": "uniform"}


def _validate_campaign(
    value: Any, stream_length: int, adversary: Mapping[str, Any]
) -> dict[str, Any]:
    """Normalise and validate a scenario's ``campaign`` block.

    Returns a deep copy with defaults resolved (``mode``, interleaved
    ``stride``, phased per-member ``start``); the round schedule implied by
    phased start fractions is checked against ``stream_length`` here, so a
    ``replace(stream_length=...)`` that collapses two phases fails at
    configuration time, not mid-game.
    """
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"campaign spec must be a mapping, got {type(value).__name__}"
        )
    if adversary != DEFAULT_ADVERSARY_SPEC:
        raise ConfigurationError(
            "a scenario cannot set both 'campaign' and a non-default 'adversary' "
            f"(got adversary {dict(adversary)!r}); the campaign's members define "
            "the attack"
        )
    campaign = copy.deepcopy(dict(value))
    unknown = set(campaign) - {"mode", "members", "stride"}
    if unknown:
        raise ConfigurationError(
            f"unknown fields in campaign spec: {', '.join(sorted(unknown))}"
        )
    mode = campaign.setdefault("mode", "phased")
    if mode not in CAMPAIGN_MODES:
        raise ConfigurationError(
            f"unknown campaign mode {mode!r}; expected one of {CAMPAIGN_MODES}"
        )
    members = campaign.get("members")
    if not isinstance(members, list) or not members:
        raise ConfigurationError("a campaign needs a non-empty 'members' list")
    normalised = []
    for index, member in enumerate(members):
        if not isinstance(member, Mapping):
            raise ConfigurationError(
                f"campaign member #{index} must be a mapping, "
                f"got {type(member).__name__}"
            )
        member = dict(member)
        member_unknown = set(member) - {"adversary", "start", "label"}
        if member_unknown:
            raise ConfigurationError(
                f"unknown fields in campaign member #{index}: "
                f"{', '.join(sorted(member_unknown))}"
            )
        if "adversary" not in member:
            raise ConfigurationError(
                f"campaign member #{index} needs an 'adversary' spec"
            )
        member["adversary"] = _as_spec(
            member["adversary"], f"campaign member #{index} adversary", "family"
        )
        if "label" in member and not isinstance(member["label"], str):
            raise ConfigurationError(
                f"campaign member #{index} label must be a string"
            )
        normalised.append(member)
    if mode == "phased":
        if "stride" in campaign:
            raise ConfigurationError(
                "'stride' only applies to interleaved campaigns; phased "
                "campaigns schedule by per-member 'start' fractions"
            )
        starts = []
        for index, member in enumerate(normalised):
            if "start" not in member:
                if index > 0:
                    raise ConfigurationError(
                        f"campaign member #{index} needs a 'start' fraction "
                        "in phased mode (the first member defaults to 0.0)"
                    )
                member["start"] = 0.0
            start = float(member["start"])
            member["start"] = start
            if not 0.0 <= start < 1.0:
                raise ConfigurationError(
                    f"campaign member #{index} start must lie in [0, 1), got {start}"
                )
            starts.append(start)
        # Raises when the fractions collapse or escape at this stream length.
        phase_start_rounds(starts, stream_length)
    else:
        stride = int(campaign.setdefault("stride", 16))
        if stride < 1:
            raise ConfigurationError(f"campaign stride must be >= 1, got {stride}")
        campaign["stride"] = stride
        for index, member in enumerate(normalised):
            if "start" in member:
                raise ConfigurationError(
                    f"campaign member #{index} declares a 'start', but interleaved "
                    "campaigns schedule by slots; remove it or use mode 'phased'"
                )
    campaign["members"] = normalised
    return campaign


def _validate_faults(
    value: Any, stream_length: int, sharding: Mapping[str, Any] | None
) -> dict[str, Any]:
    """Normalise and validate a scenario's ``faults`` block.

    Returns a deep copy with **fraction fields left unresolved** — the block
    is compiled against the effective stream length at build time
    (:func:`repro.distributed.faults.compile_fault_spec`), so a
    ``replace(stream_length=...)`` rescales the fault schedule instead of
    going stale.  Compilation is still exercised here, against the current
    stream length, so malformed specs fail at configuration time.
    """
    if sharding is None:
        raise ConfigurationError(
            "a 'faults' block requires a 'sharding' block: faults describe "
            "site crashes, coordinator staleness and resharding of a sharded "
            "deployment"
        )
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"faults spec must be a mapping, got {type(value).__name__}"
        )
    faults = copy.deepcopy(dict(value))
    plan = compile_fault_spec(faults, stream_length)
    if not plan.reshards:
        # Without resharding the topology is static, so site references can
        # be bounds-checked now instead of failing mid-game.
        sites = int(sharding["sites"])
        for crash in plan.crashes:
            if crash.site >= sites:
                raise ConfigurationError(
                    f"faults crash targets site {crash.site}, but the "
                    f"deployment has {sites} sites"
                )
    return faults


#: Allowed fields of the ``service`` block and their defaults (see
#: :class:`~repro.service.served.ServedSampler` for semantics).
_SERVICE_DEFAULTS = {"staleness_rounds": 0, "clients": 0, "query_period": 32}


def _validate_service(value: Any) -> dict[str, Any]:
    """Normalise and validate a scenario's ``service`` block.

    Returns a deep copy with all three knobs resolved to ints.  The block is
    sampler-agnostic (any family can sit behind the service facade), so no
    cross-field checks are needed here.
    """
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"service spec must be a mapping, got {type(value).__name__}"
        )
    service = copy.deepcopy(dict(value))
    unknown = set(service) - set(_SERVICE_DEFAULTS)
    if unknown:
        raise ConfigurationError(
            f"unknown fields in service spec: {', '.join(sorted(unknown))}"
        )
    for field_name, default in _SERVICE_DEFAULTS.items():
        service[field_name] = int(service.get(field_name, default))
    if service["staleness_rounds"] < 0:
        raise ConfigurationError(
            f"service staleness_rounds must be >= 0, got {service['staleness_rounds']}"
        )
    if service["clients"] < 0:
        raise ConfigurationError(
            f"service clients must be >= 0, got {service['clients']}"
        )
    if service["query_period"] < 1:
        raise ConfigurationError(
            f"service query_period must be >= 1, got {service['query_period']}"
        )
    return service


def _as_spec(value: Any, key: str, required_field: str) -> dict[str, Any]:
    """Deep-copy a spec mapping and check it names its family/kind."""
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{key} spec must be a mapping, got {type(value).__name__}")
    spec = copy.deepcopy(dict(value))
    if required_field not in spec:
        raise ConfigurationError(f"{key} spec {spec!r} is missing the {required_field!r} field")
    return spec


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified attack scenario, as plain JSON-compatible data.

    Attributes
    ----------
    name / description:
        Identity, for registries and reports.
    stream_length / universe_size / epsilon:
        Scale knobs shared with :class:`~repro.experiments.config.ExperimentConfig`.
    attack_budget:
        Fraction of rounds (a prefix of the stream) played by the attack
        adversary; the rest is benign filler.  See the module docstring.
    trials / seed / workers:
        Monte-Carlo width and reproducibility knobs, passed straight to
        :class:`~repro.adversary.batch.BatchGameRunner`.
    knowledge:
        How much sampler state the adversary observes (``"full"``,
        ``"updates"`` or ``"oblivious"``).
    continuous / checkpoint_ratio:
        Play Figure 2's continuous game (with its geometric checkpoint
        schedule) instead of the endpoint game of Figure 1.
    samplers:
        Mapping of grid label to sampler spec, e.g.
        ``{"reservoir-32": {"family": "reservoir", "capacity": 32}}``.
    adversary:
        Attack spec, e.g. ``{"family": "greedy_density", "target": {...}}``.
    benign:
        Filler-element spec for post-budget rounds (defaults to uniform
        integers over the universe).
    set_system:
        Set-system spec, e.g. ``{"kind": "prefix"}`` (universe size defaults
        to ``universe_size``).
    """

    name: str
    description: str = ""
    stream_length: int = 2048
    universe_size: int = 256
    epsilon: float = 0.25
    attack_budget: float = 1.0
    trials: int = 5
    seed: int = 20200614
    knowledge: str = "full"
    continuous: bool = True
    checkpoint_ratio: float | None = None
    #: Fraction of the stream skipped before the first checkpoint.  Very
    #: early checkpoints mostly measure empty/tiny samples (an empty sample
    #: counts as error 1 by Definition 1.1), which would saturate every
    #: scenario's peak discrepancy with warmup noise instead of attack signal.
    warmup_fraction: float = 0.1
    samplers: dict[str, dict[str, Any]] = field(
        default_factory=lambda: {"reservoir-32": {"family": "reservoir", "capacity": 32}}
    )
    adversary: dict[str, Any] = field(default_factory=lambda: dict(DEFAULT_ADVERSARY_SPEC))
    benign: dict[str, Any] | None = None
    set_system: dict[str, Any] = field(default_factory=lambda: {"kind": "prefix"})
    workers: int | None = None
    #: Maximum segment length for game execution (``None`` = runner default,
    #: ``1`` = one-element segments).  Chunking never changes *which*
    #: rounds the adversary controls or where checkpoints fall, so budget
    #: monotonicity is unaffected.
    chunk_size: int | None = None
    #: Decision cadence for the attack adversary (``None`` keeps the attack's
    #: own default, usually per-round): the adversary observes the sampler
    #: once every ``decision_period`` rounds and commits whole blocks in
    #: between, which is what lets chunked execution accelerate adaptive
    #: attacks.  A ``decision_period`` field inside the adversary spec
    #: overrides this scenario-level knob; oblivious adversary families
    #: ignore it (they have no decision points).  Cadence is part of the
    #: strategy — it changes the realised stream for periods > 1 — but never
    #: the attack/benign boundary or the checkpoint schedule, so budget
    #: monotonicity is preserved.
    decision_period: int | None = None
    #: Optional sharded-deployment block: when present, every sampler in the
    #: grid is wrapped in a :class:`~repro.distributed.sharded.ShardedSampler`
    #: with ``sites`` per-site copies of the sampler spec and the named
    #: routing ``strategy`` (``"random"`` by default; a mapping such as
    #: ``{"kind": "skewed", "hot_fraction": 0.9}`` passes parameters).  Only
    #: mergeable sampler families can be sharded — see
    #: :data:`repro.scenarios.builders.MERGEABLE_SAMPLER_FAMILIES`.
    sharding: dict[str, Any] | None = None
    #: Optional multi-adversary campaign: several attack specs composed over
    #: one stream instead of the single ``adversary`` (which must then stay
    #: at its default).  ``{"mode": "phased", "members": [{"adversary": ...,
    #: "start": 0.0}, ...]}`` cuts the stream into consecutive phases at the
    #: ``start`` fractions; ``{"mode": "interleaved", "stride": 16,
    #: "members": [...]}`` round-robins fixed-length slots between the
    #: members (colluding adversaries splitting the round budget).  Compiled
    #: to a :class:`~repro.adversary.campaign.CampaignAdversary`; the
    #: round -> member schedule depends only on the stream length, so budget
    #: monotonicity holds exactly as for single-adversary scenarios.
    campaign: dict[str, Any] | None = None
    #: Optional defense block applied to **every** sampler in the grid, e.g.
    #: ``{"kind": "sketch_switching", "copies": 4, "matched_space": True}``.
    #: ``oversample`` rewrites the sampler specs (Theorem 1.2); the
    #: replicated kinds wrap each built sampler in the corresponding
    #: :mod:`repro.defenses` wrapper.  With ``matched_space`` the per-copy
    #: capacity is divided by ``copies`` so the defended grid occupies the
    #: same total space as the undefended one (the honest comparison for the
    #: attack × defense × budget matrix).  Composes with ``sharding``: each
    #: site is defended, and the coordinator merges defended views copy-wise.
    defense: dict[str, Any] | None = None
    #: Optional fault-injection block for sharded deployments (requires
    #: ``sharding``): site crashes with optional recovery and a declared loss
    #: model, coordinator cache-staleness windows, and scheduled resharding,
    #: e.g. ``{"crashes": [{"site": 1, "round_fraction": 0.4,
    #: "recovery_fraction": 0.2, "loss": "replay"}]}``.  Round knobs may be
    #: absolute or stream-length fractions; the block is compiled to a
    #: :class:`~repro.distributed.faults.FaultPlan` at build time, so the
    #: schedule depends only on the stream length and faulted scenarios stay
    #: budget-monotone and bit-reproducible.
    faults: dict[str, Any] | None = None
    #: Optional service block: observe the sampler through the always-on
    #: query service facade (:class:`~repro.service.served.ServedSampler`)
    #: instead of directly.  ``{"staleness_rounds": 64, "clients": 4,
    #: "query_period": 8}`` serves adversary and checkpoint reads from a
    #: snapshot at most ``staleness_rounds`` behind ingestion, while
    #: ``clients`` background clients read every ``query_period`` rounds
    #: (for exposure-tracked defenses those reads reach the sites'
    #: ``observe_exposure`` hooks — a query flood genuinely spends the
    #: defense budget).  The read schedule is a pure function of the round
    #: index, so serviced scenarios stay bit-reproducible, budget-monotone
    #: and chunking-independent.
    service: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")
        if self.stream_length < 2:
            raise ConfigurationError(
                f"stream length must be >= 2, got {self.stream_length}"
            )
        if self.universe_size < 2:
            raise ConfigurationError(
                f"universe size must be >= 2, got {self.universe_size}"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 <= self.attack_budget <= 1.0:
            raise ConfigurationError(
                f"attack budget must lie in [0, 1], got {self.attack_budget}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup fraction must lie in [0, 1), got {self.warmup_fraction}"
            )
        if self.checkpoint_ratio is not None and self.checkpoint_ratio <= 0.0:
            raise ConfigurationError(
                f"checkpoint ratio must be positive, got {self.checkpoint_ratio}"
            )
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk size must be >= 1, got {self.chunk_size}"
            )
        if self.decision_period is not None and self.decision_period < 1:
            raise ConfigurationError(
                f"decision period must be >= 1, got {self.decision_period}"
            )
        validate_knowledge(self.knowledge)
        if not self.samplers:
            raise ConfigurationError("a scenario needs at least one sampler spec")
        # Frozen dataclasses still allow attribute mutation through
        # object.__setattr__; used here only to normalise the nested specs
        # into validated deep copies.
        object.__setattr__(
            self,
            "samplers",
            {
                str(label): _as_spec(spec, f"sampler {label!r}", "family")
                for label, spec in dict(self.samplers).items()
            },
        )
        object.__setattr__(self, "adversary", _as_spec(self.adversary, "adversary", "family"))
        object.__setattr__(self, "set_system", _as_spec(self.set_system, "set_system", "kind"))
        if self.benign is not None:
            object.__setattr__(self, "benign", _as_spec(self.benign, "benign", "kind"))
        if self.sharding is not None:
            sharding = _as_spec(self.sharding, "sharding", "sites")
            unknown = set(sharding) - {"sites", "strategy"}
            if unknown:
                raise ConfigurationError(
                    f"unknown fields in sharding spec: {', '.join(sorted(unknown))}"
                )
            sites = int(sharding["sites"])
            if sites < 1:
                raise ConfigurationError(f"sharding needs at least 1 site, got {sites}")
            sharding["sites"] = sites
            strategy = sharding.get("strategy")
            if strategy is not None and not isinstance(strategy, (str, Mapping)):
                raise ConfigurationError(
                    "sharding strategy must be a name or a spec mapping, "
                    f"got {type(strategy).__name__}"
                )
            object.__setattr__(self, "sharding", sharding)
        if self.campaign is not None:
            object.__setattr__(
                self,
                "campaign",
                _validate_campaign(self.campaign, self.stream_length, self.adversary),
            )
        if self.defense is not None:
            object.__setattr__(self, "defense", _validate_defense(self.defense))
        if self.faults is not None:
            object.__setattr__(
                self,
                "faults",
                _validate_faults(self.faults, self.stream_length, self.sharding),
            )
        if self.service is not None:
            object.__setattr__(self, "service", _validate_service(self.service))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def attack_rounds(self) -> int:
        """Number of leading rounds played by the attack adversary."""
        return int(round(self.attack_budget * self.stream_length))

    @property
    def adversary_label(self) -> str:
        """Grid label of the attack: the family name, or the campaign roster.

        The label deliberately omits the budget (see
        :mod:`repro.scenarios.engine`); for campaigns it is
        ``campaign:<family>+<family>+...`` in schedule order.
        """
        if self.campaign is None:
            return str(self.adversary["family"])
        families = [
            str(member["adversary"]["family"]) for member in self.campaign["members"]
        ]
        return "campaign:" + "+".join(families)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def replace(self, **overrides: Any) -> "ScenarioConfig":
        """Return a copy with the given fields replaced (validated again)."""
        unknown = set(overrides) - {f for f in self.__dataclass_fields__}
        if unknown:
            raise ConfigurationError(
                f"unknown scenario config fields: {', '.join(sorted(unknown))}"
            )
        return dataclass_replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (``asdict`` already deep-copies every nested spec)."""
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario config fields: {', '.join(sorted(unknown))}"
            )
        if "name" not in data:
            raise ConfigurationError("scenario config is missing the 'name' field")
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("scenario JSON must encode an object")
        return cls.from_dict(data)
