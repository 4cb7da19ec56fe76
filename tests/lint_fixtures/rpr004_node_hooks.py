"""RPR004 fixture: per-node persistence hooks a facade base delegates to."""


class DriftingFacade:
    """Site hook writes a field its loader drops; coordinator hook reads
    a field its writer never emits."""

    def _site_state(self, site):
        return {
            "u_local": site.u_local,
            "valid_until": site.valid_until,  # line 11: never consumed
        }

    def _load_site(self, site, state):
        site.u_local = float(state["u_local"])

    def _coordinator_state(self):
        return {"sample": self.sample}

    def _load_coordinator(self, state):
        self.sample = state["sample"]
        self.mode = state["mode"]  # line 22: never written


class SymmetricFacade:
    """Matched hook keys — must NOT fire."""

    def _site_state(self, site):
        return {"u_local": site.u_local, "valid_until": site.valid_until}

    def _load_site(self, site, state):
        site.u_local = float(state["u_local"])
        site.valid_until = state["valid_until"]

    def _coordinator_state(self):
        return {"sample": self.sample}

    def _load_coordinator(self, state):
        self.sample = state["sample"]
