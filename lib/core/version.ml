let current = "1.18.0"
