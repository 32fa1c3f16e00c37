"""Privacy settings model, including the paper's Table 1 opt-out options.

Each vendor exposes its own set of toggles, declared on its
:class:`~repro.tv.vendors.base.VendorProfile` ("straight from Table 1"
for the paper's pair); the experiment phases flip them wholesale ("we
actively opt-out of all advertising/tracking options available directly
on the TVs").  ACR specifically hangs off the *viewing information*
consent: LG's "Viewing information agreement" and Samsung's "I consent to
viewing information services on this device".

Factory defaults are profile-driven too: the paper's pair defaults to
everything opted in ("the default option when setting up the TV"), while
a vendor may declare a country-dependent consent default (the Vizio-style
extension ships with viewing data OFF in the UK).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class PrivacySettings:
    """The state of one TV's privacy toggles plus login state.

    ``country`` selects the vendor's regional consent default for the
    viewing-information toggle; omitted (None) means the global default
    (granted), which is what every paper-vendor region uses.
    """

    def __init__(self, vendor: str,
                 country: Optional[str] = None) -> None:
        from . import vendors
        try:
            self._profile = vendors.get(vendor)
        except KeyError:
            raise ValueError(f"unknown vendor: {vendor!r}") from None
        self.vendor = vendor
        self.country = country
        self.tos_accepted = True
        self.logged_in = False
        self._values: Dict[str, bool] = {}
        self.factory_reset()

    # -- phase operations ------------------------------------------------------

    def factory_reset(self) -> None:
        """The out-of-the-box state: every consent granted except where
        the vendor declares a regional default (e.g. GDPR-style
        viewing-data defaults)."""
        self.opt_in_all()
        if not self._profile.default_optin(self.country):
            self._values["viewing_information"] = False

    def opt_in_all(self) -> None:
        """Grant every tracking-related consent."""
        for key, __, opted_out_value in self._profile.opt_out_options:
            self._values[key] = not opted_out_value

    def opt_out_all(self) -> None:
        """Exercise every Table 1 option."""
        for key, __, opted_out_value in self._profile.opt_out_options:
            self._values[key] = opted_out_value

    def login(self) -> None:
        self.logged_in = True

    # -- individual options -----------------------------------------------------

    def option(self, key: str) -> bool:
        try:
            return self._values[key]
        except KeyError:
            raise KeyError(f"no option {key!r} on {self.vendor}") from None

    # -- derived consents the OS services check -----------------------------------

    @property
    def acr_enabled(self) -> bool:
        """ACR hangs off the viewing-information consent (Appendix B:
        "Across all settings, ACR is specifically disabled by turning off
        viewing information services")."""
        return self._values["viewing_information"]

    @property
    def ads_personalization_enabled(self) -> bool:
        enabled = self._values["interest_based_ads"]
        return enabled and not self._values[self._profile.ads_limiter_key]

    @property
    def is_opted_out(self) -> bool:
        """True when the full Table 1 opt-out has been exercised."""
        return all(self._values[key] == opted_out_value
                   for key, __, opted_out_value
                   in self._profile.opt_out_options)

    def describe(self) -> List[Tuple[str, str, bool]]:
        """(key, label, current value) rows, e.g. for Table 1 rendering."""
        return [(key, label, self._values[key])
                for key, label, __ in self._profile.opt_out_options]

    def __repr__(self) -> str:
        state = "opted-out" if self.is_opted_out else "opted-in"
        login = "logged-in" if self.logged_in else "logged-out"
        return f"PrivacySettings({self.vendor}, {state}, {login})"
