"""Tests for the privacy-settings model and device identifiers."""

import pytest

from repro.tv import (DeviceIdentifiers, LG_OPT_OUT_OPTIONS,
                      PrivacySettings, SAMSUNG_OPT_OUT_OPTIONS)


class TestDefaults:
    @pytest.mark.parametrize("vendor", ["lg", "samsung"])
    def test_fresh_tv_is_opted_in(self, vendor):
        """Opt-in is 'the default option when setting up the TV'."""
        settings = PrivacySettings(vendor)
        assert settings.acr_enabled
        assert settings.ads_personalization_enabled
        assert not settings.is_opted_out

    def test_tos_always_accepted(self):
        """The TV is unusable without ToS; experiments assume acceptance."""
        assert PrivacySettings("lg").tos_accepted

    def test_fresh_tv_logged_out(self):
        assert not PrivacySettings("samsung").logged_in

    def test_unknown_vendor(self):
        with pytest.raises(ValueError):
            PrivacySettings("philips")


class TestTable1Options:
    def test_lg_option_count(self):
        assert len(LG_OPT_OUT_OPTIONS) == 11

    def test_samsung_option_count(self):
        assert len(SAMSUNG_OPT_OUT_OPTIONS) == 6

    def test_lg_has_viewing_information(self):
        keys = [key for key, __, __ in LG_OPT_OUT_OPTIONS]
        assert "viewing_information" in keys
        assert "limit_ad_tracking" in keys
        assert "who_where_what" in keys

    def test_samsung_has_do_not_track(self):
        keys = [key for key, __, __ in SAMSUNG_OPT_OUT_OPTIONS]
        assert "do_not_track" in keys
        assert "viewing_information" in keys


class TestOptOut:
    @pytest.mark.parametrize("vendor", ["lg", "samsung"])
    def test_opt_out_disables_acr(self, vendor):
        """Appendix B: ACR is disabled via viewing information services."""
        settings = PrivacySettings(vendor)
        settings.opt_out_all()
        assert not settings.acr_enabled
        assert not settings.ads_personalization_enabled
        assert settings.is_opted_out

    @pytest.mark.parametrize("vendor", ["lg", "samsung"])
    def test_opt_back_in(self, vendor):
        settings = PrivacySettings(vendor)
        settings.opt_out_all()
        settings.opt_in_all()
        assert settings.acr_enabled
        assert not settings.is_opted_out

    def test_enable_style_options_inverted(self):
        """'Limit ad tracking' is *enabled* to opt out."""
        settings = PrivacySettings("lg")
        assert not settings.option("limit_ad_tracking")
        settings.opt_out_all()
        assert settings.option("limit_ad_tracking")

    def test_unknown_option(self):
        settings = PrivacySettings("lg")
        with pytest.raises(KeyError):
            settings.option("nonexistent")

    def test_describe_matches_table1(self):
        settings = PrivacySettings("samsung")
        rows = settings.describe()
        assert len(rows) == len(SAMSUNG_OPT_OUT_OPTIONS)
        labels = [label for __, label, __ in rows]
        assert any("viewing information" in label.lower()
                   for label in labels)


class TestLoginState:
    def test_login(self):
        settings = PrivacySettings("lg")
        settings.login()
        assert settings.logged_in

    def test_login_does_not_touch_consents(self):
        settings = PrivacySettings("lg")
        before = [settings.option(key)
                  for key, __, __ in LG_OPT_OUT_OPTIONS]
        settings.login()
        after = [settings.option(key)
                 for key, __, __ in LG_OPT_OUT_OPTIONS]
        assert before == after


class TestIdentifiers:
    def test_deterministic(self):
        a = DeviceIdentifiers("lg", 5)
        b = DeviceIdentifiers("lg", 5)
        assert a.advertising_id == b.advertising_id
        assert a.serial_number == b.serial_number

    def test_vendor_and_seed_vary(self):
        assert DeviceIdentifiers("lg", 5).advertising_id != \
            DeviceIdentifiers("samsung", 5).advertising_id
        assert DeviceIdentifiers("lg", 5).advertising_id != \
            DeviceIdentifiers("lg", 6).advertising_id

    def test_acr_device_id_ignores_account(self):
        """The conjecture in §4.2: ACR keys on the advertising ID."""
        identifiers = DeviceIdentifiers("samsung", 5)
        before = identifiers.acr_device_id
        identifiers.link_account(5)
        assert identifiers.acr_device_id == before

    def test_account_linking(self):
        identifiers = DeviceIdentifiers("lg", 5)
        account = identifiers.link_account(5)
        assert account.startswith("acct-")
        assert identifiers.account_id == account
