"""A participant has fully joined the conference when ``start()`` returns.

The composite channel has one consumer per display.  Once every
*attached* display has consumed a composite the collector reclaims it,
so a display that attaches late finds its first composites already
gone.  This test slows one display thread down and still expects every
composite at every display.
"""

import time

from repro.apps.videoconf import ConferenceParticipant, run_conference


class TestLateDisplayThread:
    def test_slow_display_still_sees_every_composite(self, monkeypatch):
        original = ConferenceParticipant._display

        def delayed(self, *args):
            if self.participant == 1:
                time.sleep(0.5)
            return original(self, *args)

        monkeypatch.setattr(ConferenceParticipant, "_display", delayed)
        result = run_conference(participants=2, frames=8,
                                mixer_mode="multi")
        assert result.total_composites == 2 * 8
        assert result.all_verified
