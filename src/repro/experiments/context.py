"""The campaign directory: the one store of completed point fragments.

:class:`CampaignContext` answers two questions for
:func:`~repro.experiments.runner.run_sweep`: "has this point already
been computed?" and "remember this fragment".  It owns a campaign
directory holding an append-only JSONL *journal* of completed point
keys + fragments, the campaign request, per-stage artifacts, and the
HTML report.  A killed campaign resumes from exactly the unfinished
points: every fragment is journaled (and flushed) the moment it
completes, and corrupt or truncated journal lines — the signature of a
SIGKILL mid-write — are skipped, so those points simply recompute.
``--campaign-dir`` / ``run_sweep(spec, context=CampaignContext(dir))``
open one; a run without one keeps nothing between runs.

Keys come from :func:`point_key`: a content hash of the spec name,
variant, scale, seed, and full parameter dict, so a journal can never
serve a fragment to a point it wasn't computed for.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterator, Optional, TextIO, Tuple

from repro.experiments.spec import Point

#: Campaign directory layout (all relative to the campaign root).
JOURNAL_NAME = "journal.jsonl"
REQUEST_NAME = "campaign.json"
ARTIFACT_DIR = "artifacts"
REPORT_DIR = "report"


def point_key(spec_name: str, point: Point, scale: float) -> str:
    """Content hash identifying one executable point at one scale."""
    canon = repr(
        (
            spec_name,
            point.variant.name,
            scale,
            point.seed,
            sorted((k, repr(v)) for k, v in point.params.items()),
        )
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def atomic_write_json(path: str, payload: Any) -> None:
    """Write-then-rename so readers never observe a truncated file; a
    payload that does not serialize leaves ``path`` untouched."""
    text = json.dumps(payload, indent=2) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


class CampaignContext:
    """A campaign directory: request + journal + artifacts + report.

    The journal is append-only JSONL — one ``{"stage", "key",
    "fragment"}`` object per completed point, flushed immediately so a
    SIGKILL loses at most the line being written (which the loader
    then skips).  ``get`` serves fragments journaled by *any* earlier
    attempt of the campaign; keys are content hashes, so replays are
    always safe."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        os.makedirs(self.artifact_dir, exist_ok=True)
        self._fragments: Dict[str, Dict[str, Any]] = {}
        self.journal_lines_skipped = 0
        self._replay_journal()
        self._journal: Optional[TextIO] = None

    # -- paths ---------------------------------------------------------
    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, JOURNAL_NAME)

    @property
    def request_path(self) -> str:
        return os.path.join(self.root, REQUEST_NAME)

    @property
    def artifact_dir(self) -> str:
        return os.path.join(self.root, ARTIFACT_DIR)

    @property
    def report_dir(self) -> str:
        return os.path.join(self.root, REPORT_DIR)

    # -- journal -------------------------------------------------------
    def _replay_journal(self) -> None:
        try:
            fh = open(self.journal_path)
        except OSError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    fragment = entry["fragment"]
                    key = entry["key"]
                except (ValueError, TypeError, KeyError):
                    # Truncated tail from a killed writer, or garbage:
                    # drop the line; the point recomputes.
                    self.journal_lines_skipped += 1
                    continue
                if not isinstance(fragment, dict) or not isinstance(key, str):
                    self.journal_lines_skipped += 1
                    continue
                self._fragments[key] = fragment

    def record(self, key: str, fragment: Dict[str, Any], stage: str = "") -> None:
        self._fragments[key] = dict(fragment)
        try:
            blob = json.dumps({"stage": stage, "key": key, "fragment": fragment})
        except (TypeError, ValueError):
            return  # not JSON-serializable: recompute on resume
        if self._journal is None:
            self._journal = open(self.journal_path, "a")
        self._journal.write(blob + "\n")
        self._journal.flush()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        fragment = self._fragments.get(key)
        return dict(fragment) if fragment is not None else None

    def completed_keys(self) -> Tuple[str, ...]:
        return tuple(self._fragments)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- request / artifacts ------------------------------------------
    def save_request(self, request: Dict[str, Any]) -> None:
        atomic_write_json(self.request_path, request)

    def load_request(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.request_path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def rows_artifact_path(self, stage: str) -> str:
        return os.path.join(self.artifact_dir, f"{stage}.rows.json")

    def meta_artifact_path(self, stage: str) -> str:
        return os.path.join(self.artifact_dir, f"{stage}.meta.json")

    def qa_artifact_path(self, stage: str) -> str:
        return os.path.join(self.artifact_dir, f"{stage}.qa.json")

    def write_stage_artifacts(
        self,
        stage: str,
        rows_payload: Dict[str, Any],
        meta_payload: Dict[str, Any],
        qa_payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist one finished stage.

        The *rows* artifact holds only deterministic content (spec,
        headers, rows) so byte-comparison across executors and across
        kill/resume boundaries is meaningful; volatile detail (wall
        time, executor, journal hits) lives in the *meta* artifact."""
        atomic_write_json(self.rows_artifact_path(stage), rows_payload)
        atomic_write_json(self.meta_artifact_path(stage), meta_payload)
        if qa_payload is not None:
            atomic_write_json(self.qa_artifact_path(stage), qa_payload)

    def iter_stage_artifacts(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``(stage, rows payload)`` for every completed stage."""
        try:
            names = sorted(os.listdir(self.artifact_dir))
        except OSError:
            return
        for name in names:
            if not name.endswith(".rows.json"):
                continue
            stage = name[: -len(".rows.json")]
            try:
                with open(os.path.join(self.artifact_dir, name)) as fh:
                    yield stage, json.load(fh)
            except (OSError, ValueError):
                continue
