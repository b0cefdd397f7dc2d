"""The reference trainer every production configuration is compared with."""
